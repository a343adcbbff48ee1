"""Exact dyadic spectra.

The expected coefficients come from the definition computed independently
with Fraction arithmetic, so the butterfly transform is tested against a
slower second implementation rather than against itself.
"""

import dataclasses
import functools
import itertools
import operator
import pickle
import random
from fractions import Fraction

import pytest

from jagg import fourier, verify
from jagg.boolfn import BoolFn, all_tables, compose, repeat_bits
from jagg.fourier import (_CHUNK_BITS, Dyadic, FourierSpectrum, ONE, ZERO,
                          _lane_width, _packed_reconstruct, _packed_spectrum,
                          cell_subset_identity, rectangle_identity, reconstruct,
                          spectrum)


def oracle_coeff(f: BoolFn, subset: int) -> Fraction:
    """f-hat(subset) straight from the definition: average of sign(f) times
    the parity character, with T encoded as +1."""
    total = 0
    for p in range(1 << f.n):
        sign = 1 if f.value(p) else -1
        # the character is a product over subset of +1 for a T input and -1
        # for an F input, so its sign counts the F inputs inside subset
        falses = bin(subset).count("1") - bin(p & subset).count("1")
        character = -1 if falses & 1 else 1
        total += sign * character
    return Fraction(total, 1 << f.n)


def as_fraction(d: Dyadic) -> Fraction:
    return Fraction(d.num, 1 << d.exp)


def loop_spectrum(f: BoolFn) -> list[int]:
    """Coefficient numerators over 2**n from one Python-level butterfly per
    pair of points: the reference the packed kernel must equal."""
    vals = [1 if f.table >> p & 1 else -1 for p in range(f.points)]
    step = 1
    while step < f.points:
        for base in range(0, f.points, step << 1):
            for k in range(base, base + step):
                lo, hi = vals[k], vals[k + step]
                vals[k], vals[k + step] = hi + lo, hi - lo
        step <<= 1
    return vals


def spectrum_of(n: int, coeffs: list[Fraction]) -> FourierSpectrum:
    """A spectrum with arbitrary dyadic coefficients, Boolean or not."""
    return FourierSpectrum(n, tuple(int(c * (1 << n)) for c in coeffs))


def one_int_reconstruct(spec: FourierSpectrum) -> BoolFn:
    """``reconstruct`` by the one-int kernel the chunked one replaced: every
    inverse stage on the whole vector as one int, with masks as large as the
    vector, then a test and decode from the lanes' sign bits.  The reference
    the chunked kernel and its byte-table decode must equal, errors included."""
    npts, nums = 1 << spec.n, spec.nums
    width = 16
    while sum(map(abs, nums)) >= 1 << (width - 1):
        width <<= 1
    total, size = npts * width, width // 8
    x = int.from_bytes(b"".join(v.to_bytes(size, "little", signed=True) for v in nums),
                       "little")
    lane_bias = repeat_bits(1 << (width - 1), width, total)
    x ^= lane_bias
    shift = width
    while shift < total:
        keep = repeat_bits((1 << shift) - 1, shift << 1, total)
        bias = keep & lane_bias
        lo, hi = x & keep, (x >> shift) & keep
        x = (lo - hi + bias) | ((lo + hi - bias) << shift)
        shift <<= 1
    x ^= lane_bias
    ones = repeat_bits(1, width, total)
    neg = (x >> (width - 1)) & ones   # 1 in each lane whose sign bit is set
    if x != ones * npts + neg * ((1 << width) - 2 * npts):
        raw = x.to_bytes(total // 8, "little")
        values = (int.from_bytes(raw[i:i + size], "little", signed=True)
                  for i in range(0, len(raw), size))
        p, v = next((p, v) for p, v in enumerate(values) if v != npts and v != -npts)
        exp = max(c.exp for c in spec.coeffs)
        raise ValueError(f"coefficients do not describe a Boolean function "
                         f"(value {v >> (spec.n - exp)}/2**{exp} at point {p})")
    # one byte per lane, 1 where the value is +2**n, read as binary digits
    digits = (neg ^ ones).to_bytes(total // 8, "little")[::size]
    digits = digits.translate(bytes.maketrans(b"\x00\x01", b"01"))
    return BoolFn(spec.n, int(digits[::-1], 2))


@functools.cache
def tuple_plan(n: int) -> tuple[tuple[tuple[int, ...], ...], dict[tuple[int, ...], int]]:
    """The arity-n byte plan at 16-bit lanes as int tuples, for n <= 3, where
    a byte is the whole table: each byte value's entry, which is its
    spectrum's numerators, and the reverse map back to the byte."""
    forward, back, _ = fourier._byte_plan(n, 16)
    return (tuple(fourier._unpack(entry, 16) for entry in forward),
            {fourier._unpack(entry, 16): byte for entry, byte in back.items()})


def tuple_plan_spectrum(f: BoolFn) -> FourierSpectrum:
    """``spectrum`` by the int-tuple plan that arities 0-3 once took: the
    table's entry, with no lanes.  The reference the packed path must equal
    there."""
    return FourierSpectrum(f.n, tuple_plan(f.n)[0][f.table])


def tuple_plan_reconstruct(spec: FourierSpectrum) -> BoolFn:
    """``reconstruct`` by the int-tuple plan: the numerators looked up in
    the reverse map, and on a miss the packed path, to name the bad point."""
    try:
        return BoolFn(spec.n, tuple_plan(spec.n)[1][tuple(spec.nums)])
    except KeyError:   # not Boolean
        return _packed_reconstruct(spec)


def reconstruct_outcome(rebuild, spec: FourierSpectrum) -> "BoolFn | str":
    """The function ``rebuild`` makes from ``spec``, or its error text."""
    try:
        return rebuild(spec)
    except ValueError as exc:
        return str(exc)


def perturbed(spec: FourierSpectrum) -> list[FourierSpectrum]:
    """``spec`` with each numerator in turn raised by 1 and by 2, none of
    them Boolean, and with the coefficients of inputs 0 and 1 swapped, which
    is Boolean for some spectra (a dictator of input 0 becomes one of input
    1) and not for others."""
    n, nums = spec.n, spec.nums
    specs = [FourierSpectrum(n, nums[:r] + (nums[r] + delta,) + nums[r + 1:])
             for r in range(len(nums)) for delta in (1, 2)]
    if n >= 2:
        specs.append(FourierSpectrum(n, (nums[0], nums[2], nums[1]) + nums[3:]))
    return specs


RANDOM_ARITIES = (5, 8, 11, 12, 13, 15, 16)


# --- Dyadic -----------------------------------------------------------------

def test_dyadic_canonical():
    assert Dyadic.make(4, 2) == ONE
    assert Dyadic.make(6, 3) == Dyadic(3, 2)
    assert Dyadic.make(0, 5) == ZERO
    assert Dyadic.make(-8, 1) == Dyadic(-4, 0)
    with pytest.raises(ValueError):
        Dyadic(2, 1)  # non-canonical: even numerator with positive exponent
    with pytest.raises(ValueError):
        Dyadic(1, -1)


@pytest.mark.parametrize("num, exp", [
    (1.5, 0), ("1", 0), (None, 0), (Fraction(1), 0), (2.0, 0), (1, 0.0), (1, "0"), (1, None),
])
def test_dyadic_rejects_non_int_parts(num, exp):
    # rejected up front: a float part would fail only in a later shift, and
    # a str one inside the lowest-terms check's formatting
    with pytest.raises(ValueError) as err:
        Dyadic(num, exp)
    assert str(err.value) == "numerator and exponent must be integers"


def test_dyadic_arithmetic():
    a, b = Dyadic.make(3, 2), Dyadic.make(-1, 1)
    assert a + b == Dyadic(1, 2)
    assert a - b == Dyadic(5, 2)
    assert a * b == Dyadic(-3, 3)
    assert a ** 2 == Dyadic(9, 4)
    assert a ** 0 == ONE
    assert ZERO ** 0 == ONE
    assert a + 1 == Dyadic(7, 2)
    assert 2 * a == Dyadic(3, 1)
    assert 1 - b == Dyadic(3, 1)
    assert -b == Dyadic(1, 1)


def test_dyadic_comparisons_and_hash():
    a, b = Dyadic.make(3, 2), Dyadic.make(-1, 1)
    assert b < ZERO < a < ONE
    assert a <= a and a >= a
    assert ONE == 1 and hash(ONE) == hash(1)
    assert Dyadic.make(10, 1) == 5 and hash(Dyadic.make(10, 1)) == hash(5)
    assert float(a) == 0.75
    assert sorted([ONE, b, a, ZERO]) == [b, ZERO, a, ONE]


def test_dyadic_equals_an_int_as_the_int_made_dyadic():
    values = [Dyadic.make(num, exp) for num in range(-9, 10) for exp in range(4)]
    for d in values:
        for k in (*range(-9, 10), True, False):
            assert (d == k) == (d == Dyadic.make(k)) == (k == d)
            assert (d != k) == (not d == k)


def test_dyadic_order_rejects_other_types():
    for op in ("__lt__", "__le__"):
        assert getattr(ONE, op)("x") is NotImplemented
    with pytest.raises(TypeError):
        Dyadic(1, 0) < "x"
    with pytest.raises(TypeError):
        Dyadic(1, 0) <= "x"
    with pytest.raises(TypeError):
        Dyadic(1, 0) > 0.5


def test_dyadic_operators_match_fraction():
    # each operator beside its mirror: with an int y, rop(y, x) falls back to
    # x's reflected method (y - x to x.__rsub__, y > x to x.__lt__, y < x to
    # x.__gt__), so all four comparisons meet an int on either side
    ops = [(operator.add, operator.add), (operator.sub, operator.sub),
           (operator.mul, operator.mul), (operator.lt, operator.gt),
           (operator.le, operator.ge), (operator.gt, operator.lt),
           (operator.ge, operator.le), (operator.eq, operator.eq)]
    # values far apart in exponent and bools as ints among them
    dyadics = [Dyadic.make(num, exp) for num in (*range(-5, 6), 1 << 70)
               for exp in (0, 1, 2, 80)]
    ints = [*range(-3, 4), -(1 << 80), 1 << 80, True, False]

    def exact(value):
        return as_fraction(value) if isinstance(value, Dyadic) else value

    for op, rop in ops:
        for x in dyadics:
            for y in dyadics + ints:
                assert exact(op(x, y)) == op(as_fraction(x), Fraction(exact(y))), (op, x, y)
                assert exact(rop(y, x)) == rop(Fraction(exact(y)), as_fraction(x)), (rop, y, x)
    foreign = (2.5, "x", None, Fraction(1, 2))
    names = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
             "__lt__", "__le__", "__gt__", "__ge__")
    for x in (ZERO, Dyadic.make(3, 2)):
        for y in foreign:
            for name in names:
                assert getattr(x, name)(y) is NotImplemented, (name, y)
            for op, rop in ops[:-1]:
                with pytest.raises(TypeError):
                    op(x, y)
                with pytest.raises(TypeError):
                    rop(y, x)


def test_dyadic_make_is_canonical():
    # make sets its slots without the constructor's checks: every value it
    # makes must pass them, and equal the fraction it was asked for
    for num in range(-300, 301):
        for exp in range(13):
            d = Dyadic.make(num, exp)
            checked = Dyadic(d.num, d.exp)
            assert d == checked and hash(d) == hash(checked)
            assert as_fraction(d) == Fraction(num, 1 << exp)
    for num in (3, 4):
        with pytest.raises(ValueError) as err:
            Dyadic.make(num, -1)
        assert str(err.value) == "exponent must be non-negative"


def test_dyadic_str():
    assert str(ONE) == "1"
    assert str(Dyadic.make(-3, 2)) == "-3/2^2"
    assert str(ZERO) == "0"
    assert str(Dyadic.make(4, 1)) == "2"


# --- spectra ----------------------------------------------------------------

def test_spectrum_matches_definition_exhaustive():
    for n in (0, 1, 2, 3):
        for f in all_tables(n):
            sp = spectrum(f)
            for subset in range(1 << n):
                assert as_fraction(sp[subset]) == oracle_coeff(f, subset)


def test_spectrum_matches_definition_at_random_arities():
    # every coefficient against the loop transform; against the definition,
    # every coefficient at arity <= 8 and a seeded sample of subsets above
    rng = random.Random(20181027)
    for n in RANDOM_ARITIES:
        f = BoolFn(n, rng.getrandbits(1 << n))
        sp = spectrum(f)
        assert sp.coeffs == tuple(Dyadic.make(v, n) for v in loop_spectrum(f))
        # equal coefficients share one object
        assert len({id(c) for c in sp.coeffs}) == len(set(sp.nums))
        full = (1 << n) - 1
        subsets = (range(1 << n) if n <= 8 else
                   [0, full, 1 << rng.randrange(n)]
                   + [rng.getrandbits(n) for _ in range(5)])
        for subset in subsets:
            assert as_fraction(sp[subset]) == oracle_coeff(f, subset)
    # arity 5 is where the packed path starts: the byte table meets the
    # first packed stage
    rng = random.Random(4096)
    for _ in range(4096):
        f = BoolFn(5, rng.getrandbits(1 << 5))
        assert spectrum(f).nums == tuple(loop_spectrum(f))


def test_spectrum_matches_checked_construction():
    # spectrum fills its result without the constructor's checks
    rng = random.Random(1717)
    for n in range(18):
        spec = spectrum(BoolFn(n, rng.getrandbits(1 << n)))
        checked = FourierSpectrum(n, spec.nums)
        assert type(spec.nums) is tuple
        assert spec == checked and hash(spec) == hash(checked)
        assert repr(spec) == repr(checked)


def test_closed_forms():
    for n in (1, 2, 3, 4):
        half = Fraction(1, 1 << (n - 1))
        sp = spectrum(BoolFn.and_(n))
        full = (1 << n) - 1
        # AND: 1/2^(n-1) on every nonempty subset, that minus 1 on the empty set
        for subset in range(1, 1 << n):
            assert as_fraction(sp[subset]) == half
        assert as_fraction(sp[0]) == half - 1
        # OR: sign alternates with subset size, 1 - 1/2^(n-1) on the empty set
        sp = spectrum(BoolFn.or_(n))
        for subset in range(1, 1 << n):
            size = bin(subset).count("1")
            assert as_fraction(sp[subset]) == (-1) ** (size + 1) * half
        assert as_fraction(sp[0]) == 1 - half
        # odd parity: one unit coefficient on the full set
        sp = spectrum(BoolFn.xor(n))
        assert sp[full] == (-1) ** (n + 1)
        assert sp.support() == (full,)
        # even parity is its negation
        sp = spectrum(BoolFn.nxor(n))
        assert sp[full] == (-1) ** n
        assert sp.support() == (full,)
        # constants and dictators
        assert spectrum(BoolFn.constant(n, True)).support() == (0,)
        assert spectrum(BoolFn.constant(n, True))[0] == ONE
        for i in range(n):
            sp = spectrum(BoolFn.dictator(n, i))
            assert sp.support() == (1 << i,)
            assert sp[1 << i] == ONE


def test_parseval_exhaustive():
    for n in (1, 2, 3):
        for f in all_tables(n):
            assert spectrum(f).parseval_sum() == 1


def test_subset_mask_out_of_range():
    sp = spectrum(BoolFn.and_(2))
    for mask in (-1, -4, 4, 1 << 10):
        with pytest.raises(ValueError) as err:
            sp[mask]
        assert str(err.value) == f"subset mask {mask} out of range for arity 2"


def test_spectrum_rejects_negative_arity():
    with pytest.raises(ValueError) as err:
        FourierSpectrum(-1, ())
    assert str(err.value) == "arity must be non-negative, got -1"


def test_spectrum_keeps_numerators_as_a_tuple():
    # numerators given as a list or any iterable are kept as a tuple, so the
    # frozen spectrum hashes and equals the one given the same tuple
    nums = spectrum(BoolFn.and_(3)).nums
    for given in (list(nums), iter(nums), nums):
        spec = FourierSpectrum(3, given)
        assert type(spec.nums) is tuple
        assert spec == FourierSpectrum(3, nums)
        assert hash(spec) == hash(FourierSpectrum(3, nums))
        assert reconstruct(spec) == BoolFn.and_(3)
    with pytest.raises(ValueError) as err:
        FourierSpectrum(3, list(nums[:4]))
    assert str(err.value) == "expected 8 coefficients, got 4"


def test_spectrum_rejects_non_int_numerators():
    for nums in ((2.0, 0.0), (2, 0.0), (Fraction(2), 0), ("2", 0), (None, 0)):
        with pytest.raises(ValueError) as err:
            FourierSpectrum(1, nums)
        assert str(err.value) == "coefficient numerators must be integers"
    assert reconstruct(FourierSpectrum(1, (2, 0))) == BoolFn(1, 0b11)


def test_reconstruct_roundtrip():
    for n in (0, 1, 2, 3, 4):
        for f in all_tables(n):
            assert reconstruct(spectrum(f)) == f
    rng = random.Random(1810)
    for n in RANDOM_ARITIES:
        for table in (rng.getrandbits(1 << n), 0, (1 << (1 << n)) - 1):
            f = BoolFn(n, table)
            assert reconstruct(spectrum(f)) == f


def test_reconstruct_matches_one_int_kernel():
    specs = []
    for n in (0, 1, 2, 3):
        for f in all_tables(n):
            spec = spectrum(f)
            specs += [FourierSpectrum(n, spec.nums), *perturbed(spec)]
    # arity 4 joins two byte entries by one stage on one int of lanes
    for table in random.Random(1604).sample(range(1 << 16), 64):
        specs += perturbed(spectrum(BoolFn(4, table)))
    rng = random.Random(1115)
    specs += [spectrum(BoolFn(n, rng.getrandbits(1 << n))) for n in range(11, 16)]
    # all zero: the narrowest lanes, too narrow to hold the value 2**15 at all
    specs.append(FourierSpectrum(15, (0,) * (1 << 15)))
    for spec in specs:
        assert (reconstruct_outcome(reconstruct, spec)
                == reconstruct_outcome(one_int_reconstruct, spec))


def test_reconstruct_names_bad_point_in_second_chunk():
    # a dictator's spectrum with the value at point p taken to 0: 16-bit
    # lanes, so the 2**13 points fill two chunks and p lies in the second
    n, p = 13, 5000
    nums = list(spectrum(BoolFn.dictator(n, 0)).nums)
    value = 1 if p & 1 else -1
    for r in range(1 << n):
        character = -1 if bin(r & ~p).count("1") & 1 else 1
        nums[r] -= value * character
    spec = FourierSpectrum(n, tuple(nums))
    assert _lane_width(sum(map(abs, nums))) << n == 2 * _CHUNK_BITS
    message = ("coefficients do not describe a Boolean function "
               f"(value 0/2**13 at point {p})")
    assert reconstruct_outcome(reconstruct, spec) == message
    assert reconstruct_outcome(one_int_reconstruct, spec) == message


def test_carried_lanes_match_default_lanes():
    # spectrum's own lanes, at the width that holds 2**n, against lanes packed
    # afresh from the numerators at the width their absolute sum needs; lanes
    # are carried at every arity, joined by one stage at arity 4 and chunked
    # elsewhere, and the seeded arities cross the chunk boundary and the 16-
    # to 32-bit switch
    rng = random.Random(1915)
    fns = [f for n in range(4) for f in all_tables(n)]
    fns += [BoolFn(n, rng.getrandbits(1 << n)) for n in (4, 5) for _ in range(256)]
    fns += [BoolFn(n, rng.getrandbits(1 << n)) for n in RANDOM_ARITIES + (17,)]
    for f in fns:
        carried = spectrum(f)
        fresh = FourierSpectrum(f.n, carried.nums)
        assert reconstruct(carried) == f
        assert reconstruct(fresh) == f
        assert one_int_reconstruct(fresh) == f


def test_arity_4_lanes_match_packed_lanes(monkeypatch):
    # the join plan's one add makes the lanes the chunked transform makes,
    # and its reverse maps decode every Boolean spectrum, carried lanes or
    # packed afresh, without the packed path
    def unused(spec):
        raise AssertionError("a Boolean arity-4 spectrum missed the join plan")

    monkeypatch.setattr(fourier, "_packed_reconstruct", unused)
    for f in all_tables(4):
        joined, packed = spectrum(f), _packed_spectrum(f)
        assert joined.nums == packed.nums
        assert joined._lanes == packed._lanes
        assert reconstruct(joined) == reconstruct(FourierSpectrum(4, joined.nums)) == f


def test_arity_4_wide_lanes_take_the_packed_path():
    # numerators whose absolute sum needs 32- or 64-bit lanes skip the join
    # plan's 16-bit maps and get the packed path's error text
    message = ("coefficients do not describe a Boolean function "
               "(value -1/2**4 at point 0)")
    for width, top in ((32, 20000), (64, 2 ** 40)):
        spec = FourierSpectrum(4, (top, top + 1) + (0,) * 14)
        assert spec._lanes[0] == width
        assert reconstruct_outcome(reconstruct, spec) == message
        assert reconstruct_outcome(_packed_reconstruct, spec) == message
    # 2**16 - 16 in a 32-bit lane reads as the 16-bit lanes -16 and 0, the
    # lanes of the constant F: the width, not a miss, keeps it from the maps
    spec = FourierSpectrum(4, (2 ** 16 - 16,) + (0,) * 15)
    assert spec._lanes[0] == 32
    assert reconstruct_outcome(reconstruct, spec) == (
        "coefficients do not describe a Boolean function (value 4095/2**0 at point 0)")


def test_small_path_matches_packed_path():
    # at arity 4 spectrum and reconstruct work on one int of lanes joined by
    # one stage, and up to arity 3 they are the packed path; the packed path
    # is the reference, on every table, on perturbed spectra and on random
    # integer ones, error text included
    specs = []
    for n in range(5):
        for f in all_tables(n):
            small, packed = spectrum(f), _packed_spectrum(f)
            assert small.nums == packed.nums
            assert reconstruct(small) == _packed_reconstruct(packed) == f
            if n < 4 or f.table % 251 == 0:
                specs += perturbed(small)
    rng = random.Random(2504)
    for n in range(5):
        specs += [FourierSpectrum(n, tuple(rng.randrange(-(1 << n), (1 << n) + 1)
                                           for _ in range(1 << n)))
                  for _ in range(200)]
    outcomes = [reconstruct_outcome(reconstruct, spec) for spec in specs]
    assert outcomes == [reconstruct_outcome(_packed_reconstruct, spec) for spec in specs]
    # both hits and misses are among them
    assert {type(outcome) for outcome in outcomes} == {BoolFn, str}


def test_packed_path_matches_tuple_plan():
    # arities 0-3 once took the int-tuple plan; the packed path that replaced
    # it gives the same numerators on all 278 tables, and the same outcome on
    # perturbed and random spectra, error text included
    specs, tables = [], 0
    for n in range(4):
        for f in all_tables(n):
            packed, planned = spectrum(f), tuple_plan_spectrum(f)
            assert packed == planned
            assert reconstruct(packed) == tuple_plan_reconstruct(planned) == f
            specs += perturbed(planned)
            tables += 1
    assert tables == 278
    rng = random.Random(3003)
    for n in range(4):
        specs += [FourierSpectrum(n, tuple(rng.randrange(-(1 << n), (1 << n) + 1)
                                           for _ in range(1 << n)))
                  for _ in range(200)]
    outcomes = [reconstruct_outcome(reconstruct, spec) for spec in specs]
    assert outcomes == [reconstruct_outcome(tuple_plan_reconstruct, spec) for spec in specs]
    assert {type(outcome) for outcome in outcomes} == {BoolFn, str}


def test_replaced_spectrum_does_not_keep_lanes():
    # spectrum's own lanes at every arity; a replaced spectrum packs its own
    for n in (3, 4, 9):
        spec = spectrum(BoolFn.and_(n))
        other = spectrum(BoolFn.or_(n))
        assert reconstruct(dataclasses.replace(spec, nums=other.nums)) == BoolFn.or_(n)
        bad = (spec.nums[0] + 1,) + spec.nums[1:]
        with pytest.raises(ValueError) as replaced:
            reconstruct(dataclasses.replace(spec, nums=bad))
        with pytest.raises(ValueError) as fresh:
            reconstruct(FourierSpectrum(n, bad))
        assert str(replaced.value) == str(fresh.value)


def test_pickled_spectrum_reconstructs():
    # every arity carries packed lanes: chunked at 9 and 3, joined at 4
    rng = random.Random(9)
    for n in (9, 4, 3):
        f = BoolFn(n, rng.getrandbits(1 << n))
        spec = spectrum(f)
        back = pickle.loads(pickle.dumps(spec))
        assert back == spec
        assert "_lanes" in vars(back)
        assert vars(back)["_lanes"] == vars(spec)["_lanes"]
        assert reconstruct(back) == f
        assert back.coeffs == spec.coeffs
        # a spectrum pickled with its coefficients keeps them, shared as before
        back = pickle.loads(pickle.dumps(spec))
        assert back.coeffs == spec.coeffs
        assert len({id(c) for c in back.coeffs}) == len(set(spec.nums))


@pytest.mark.parametrize("n, coeffs, message", [
    # the first bad point is named, with the value over 2**e where e is the
    # largest exponent among the coefficients, not the arity
    (2, [Fraction(1, 2), Fraction(1, 2), 0, 0], "value 0/2**1 at point 0"),
    (2, [Fraction(1, 2), 0, 0, Fraction(1, 2)], "value 0/2**1 at point 1"),
    (3, [Fraction(1, 4), Fraction(3, 4)] + [0] * 6, "value -2/2**2 at point 0"),
    (3, [0, 1, 1] + [0] * 5, "value -2/2**0 at point 0"),
    (2, [0] * 4, "value 0/2**0 at point 0"),
    # numerators whose partial sums overflow 16-, 32- and 64-bit lanes
    (4, [1000, 1001] + [0] * 14, "value 2001/2**0 at point 1"),
    (1, [2 ** 40, 2 ** 40 + 1], f"value {2 ** 41 + 1}/2**0 at point 1"),
    (3, [2 ** 70, 2 ** 70 + 1] + [0] * 6, f"value {2 ** 71 + 1}/2**0 at point 1"),
    (2, [-(2 ** 62), 0, 2 ** 62 - 1, 0], f"value {-(2 ** 63) + 1}/2**0 at point 0"),
])
def test_reconstruct_rejects_non_boolean(n, coeffs, message):
    with pytest.raises(ValueError) as err:
        reconstruct(spectrum_of(n, coeffs))
    assert str(err.value) == ("coefficients do not describe a Boolean function "
                              f"({message})")


# --- composition identities -------------------------------------------------

def composite_tables(g: BoolFn, f: BoolFn):
    """Both orders of applying g to columns and f to rows of an m-by-n
    matrix of variables, as functions over the full matrix cube."""
    m, n = g.n, f.n
    width = 1 << (m * n)
    from jagg.boolfn import variable_mask
    cell = [[variable_mask(i * n + j, m * n) for j in range(n)] for i in range(m)]
    col_then_row = compose(
        f, [compose(g, [cell[i][j] for i in range(m)], width) for j in range(n)],
        width)
    row_then_col = compose(
        g, [compose(f, [cell[i][j] for j in range(n)], width) for i in range(m)],
        width)
    return BoolFn(m * n, col_then_row), BoolFn(m * n, row_then_col)


def test_cell_subset_identity_against_composite_spectra():
    pairs = [
        (BoolFn.and_(2), BoolFn.and_(2)),
        (BoolFn.or_(2), BoolFn.or_(3)),
        (BoolFn.xor(2), BoolFn.xor(2)),
        (BoolFn.nxor(2), BoolFn.xor(3)),
        (BoolFn.or_(2), BoolFn.and_(2)),   # not normal
        (BoolFn.majority(3), BoolFn.or_(2)),  # not normal
    ]
    for g, f in pairs:
        m, n = g.n, f.n
        cr, rc = composite_tables(g, f)
        sp_cr, sp_rc = spectrum(cr), spectrum(rc)
        for cells in range(1 << (m * n)):
            lhs, rhs = cell_subset_identity(g, f, cells)
            assert lhs == sp_cr[cells]
            assert rhs == sp_rc[cells]


def test_cell_subset_identity_accepts_pairs():
    g, f = BoolFn.and_(2), BoolFn.and_(2)
    by_mask = cell_subset_identity(g, f, 0b0110)
    by_pairs = cell_subset_identity(g, f, [(0, 1), (1, 0)])
    assert by_mask == by_pairs


def test_cell_subset_identity_on_normal_pairs():
    for g, f in ((BoolFn.and_(3), BoolFn.and_(3)),
                 (BoolFn.or_(2), BoolFn.or_(2)),
                 (BoolFn.xor(3), BoolFn.nxor(2))):
        for cells in range(1 << (g.n * f.n)):
            lhs, rhs = cell_subset_identity(g, f, cells)
            assert lhs == rhs


def test_cell_subset_identity_violated_for_or_and():
    g, f = BoolFn.or_(2), BoolFn.and_(2)
    bad = [cells for cells in range(16)
           if cell_subset_identity(g, f, cells)[0]
           != cell_subset_identity(g, f, cells)[1]]
    assert bad != []
    assert bad[0] == 0


def test_rectangle_identity():
    g, f = BoolFn.or_(2), BoolFn.or_(3)
    for rows in range(1, 1 << g.n):
        for cols in range(1, 1 << f.n):
            row_idx = [i for i in range(g.n) if rows >> i & 1]
            col_idx = [j for j in range(f.n) if cols >> j & 1]
            lhs, rhs = rectangle_identity(g, f, row_idx, col_idx)
            assert lhs == rhs
            # a full rectangle is the cell subset of its cell product
            mask = 0
            for i in row_idx:
                for j in col_idx:
                    mask |= 1 << (i * f.n + j)
            assert (lhs, rhs) == cell_subset_identity(g, f, mask)
    with pytest.raises(ValueError):
        rectangle_identity(g, f, [], [0])


def test_identities_suite_transforms_each_table_once(monkeypatch):
    # the suite checks thousands of cell sets on 8 distinct tables: every one
    # of its identities reads the same spectra
    calls = []

    def counting_spectrum(fn):
        calls.append(fn)
        return spectrum(fn)

    monkeypatch.setattr(fourier, "spectrum", counting_spectrum)
    monkeypatch.setattr(verify, "spectrum", counting_spectrum)
    report = verify.run_suites(["identities"])
    assert [c.passed for c in report.checks] == [True] * 3
    assert len(calls) == len(set(calls)) <= 8
