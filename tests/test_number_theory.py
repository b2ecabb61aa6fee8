import math
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jarnik import number_theory
from jarnik.number_theory import (
    E_MINUS_2,
    INV_SQRT3,
    GeneratedCF,
    QuadraticSurd,
    convergent_walk,
    farey_fractions,
    farey_neighbor_runs,
    moebius_array,
    parse_real,
    totient_array,
)

from oracles import (
    farey_neighbor_scan,
    farey_neighbors,
    farey_neighbors_stern_brocot,
    farey_sequence,
    farey_walk,
    moebius_linear_sieve,
    partial_zeta_inverse,
    rational_quotients,
    totient_list_sieve,
)

# exact irrationals exercised against the brute-force Farey oracle
CORPUS = [
    "const:inv-sqrt3",
    "const:e-2",
    "surd:(0+sqrt(2))/2",
    "surd:(0+sqrt(5))/5",
    "surd:(0+sqrt(7))/7",
    "surd:(0+sqrt(10))/10",
    "surd:(-1+sqrt(2))/1",
    "surd:(-1+sqrt(3))/1",
    "surd:(-1+sqrt(5))/2",
    "surd:(-2+sqrt(7))/1",
    "surd:(-3+sqrt(10))/1",
    "surd:(-3+sqrt(13))/2",
    "surd:(1+sqrt(2))/4",
    "surd:(2+sqrt(3))/5",
    "surd:(1+sqrt(5))/6",
    "surd:(0+sqrt(3))/2",
    "cf:[0;(2,3)]",
    "cf:[0;2,(1,1,3)]",
    "cf:[0;(4)]",
    "cf:[0;1,1,(2,1,6)]",
]


def brute_force_farey(order):
    fracs = {Fraction(0), Fraction(1)}
    for q in range(1, order + 1):
        for a in range(1, q):
            fracs.add(Fraction(a, q))
    return sorted(fracs)


# ---------------------------------------------------------------------------
# Mobius
# ---------------------------------------------------------------------------


def test_moebius_known_values():
    mu = moebius_array(30).tolist()
    assert mu[1] == 1
    assert mu[4] == 0  # 2^2 divides 4
    assert mu[30] == -1  # three distinct primes
    assert mu[6] == 1
    assert mu[2] == mu[3] == mu[5] == -1


def test_moebius_rejects_zero():
    with pytest.raises(ValueError):
        moebius_array(0)


def test_moebius_divisor_sum_identity_to_10000():
    limit = 10_000
    mu = moebius_array(limit).tolist()
    acc = [0] * (limit + 1)
    for d in range(1, limit + 1):
        m = mu[d]
        if m:
            for n in range(d, limit + 1, d):
                acc[n] += m
    assert acc[1] == 1
    assert all(acc[n] == 0 for n in range(2, limit + 1))


def test_partial_zeta_inverse_small_orders():
    assert partial_zeta_inverse(1) == 1
    assert partial_zeta_inverse(2) == Fraction(3, 4)
    assert partial_zeta_inverse(3) == Fraction(3, 4) - Fraction(1, 9)


def test_partial_zeta_inverse_converges():
    # tail is bounded by sum_{q>Q} 1/q^2 < 1/Q
    value = partial_zeta_inverse(10_000)
    assert abs(float(value) - 6 / math.pi**2) < 2e-4


def test_moebius_array_is_the_int8_sieve():
    for limit in (1, 2, 30, 997, 10**5):
        mu = moebius_array(limit)
        assert mu.dtype == np.int8 and mu.shape == (limit + 1,)
        assert mu.tolist() == moebius_linear_sieve(limit), limit
    with pytest.raises(ValueError):
        moebius_array(0)


def test_totient_sieve_prefix():
    phi = totient_array(12).tolist()
    assert phi[1:13] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]


@pytest.mark.parametrize("multiples_slice", [number_theory._MULTIPLES_SLICE, 7], ids=["default", "7"])
def test_array_sieves_match_the_list_sieves(monkeypatch, multiples_slice):
    # the large-prime pass a slice of multiples at a time, also in slices
    # that cut the rows of its primes; 528..530 and 960..962 straddle 23^2
    # and 31^2, where a prime moves from the small primes to the large ones
    monkeypatch.setattr(number_theory, "_MULTIPLES_SLICE", multiples_slice)
    for limit in [*range(1, 501), 528, 529, 530, 960, 961, 962, 5000, 10**5]:
        assert totient_array(limit).tolist() == totient_list_sieve(limit), limit
        assert moebius_array(limit).tolist() == moebius_linear_sieve(limit), limit
    assert {type(v) for v in totient_array(30).tolist() + moebius_array(30).tolist()} == {int}
    with pytest.raises(ValueError):
        totient_array(0)


# ---------------------------------------------------------------------------
# Farey sequences
# ---------------------------------------------------------------------------


def test_farey_sequence_order_4():
    want = [Fraction(*p) for p in ((0, 1), (1, 4), (1, 3), (1, 2), (2, 3), (3, 4), (1, 1))]
    assert farey_sequence(4) == want


def test_farey_sequence_order_1():
    assert farey_sequence(1) == [Fraction(0), Fraction(1)]


def test_farey_sequence_order_5_vs_brute_force():
    seq = farey_sequence(5)
    assert len(seq) == 11
    assert seq == brute_force_farey(5)


@pytest.mark.parametrize("order", [2, 3, 7, 12, 30, 61])
def test_farey_sequence_matches_brute_force(order):
    assert farey_sequence(order) == brute_force_farey(order)


def test_farey_kernel_matches_next_term_oracle_orders_to_300():
    for order in range(1, 301):
        a, q = farey_fractions(order)
        assert a.dtype == q.dtype == np.int64
        assert list(zip(a.tolist(), q.tolist())) == list(farey_walk(order)), order


def test_capped_farey_kernel_matches_filtered_oracle():
    rng = np.random.default_rng(12)
    for order in (1, 2, 7, 40, 97, 300):
        rows = np.arange(order + 1)
        for cap in (rows, np.zeros_like(rows), rng.integers(-2, order + 3, order + 1), rows // 3):
            a, q = farey_fractions(order, cap)
            want = [(n, d) for n, d in farey_walk(order) if n <= cap[d]]
            assert list(zip(a.tolist(), q.tolist())) == want, (order, cap)


def test_farey_kernel_rejects_bad_arguments():
    with pytest.raises(ValueError):
        farey_fractions(0)
    with pytest.raises(ValueError):
        farey_fractions(5, [0, 1, 2])


def test_farey_adjacent_unimodular_all_orders_to_200():
    for order in range(1, 201):
        prev_n, prev_d = 0, 1
        for frac in farey_sequence(order)[1:]:
            assert frac.numerator * prev_d - prev_n * frac.denominator == 1
            prev_n, prev_d = frac.numerator, frac.denominator


# ---------------------------------------------------------------------------
# Continued fractions
# ---------------------------------------------------------------------------


def test_cf_inv_sqrt3():
    assert tuple(islice(INV_SQRT3.quotients(), 12)) == (1, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1)


def test_cf_e_minus_2():
    assert tuple(islice(E_MINUS_2.quotients(), 12)) == (1, 2, 1, 1, 4, 1, 1, 6, 1, 1, 8, 1)


def test_cf_rational_terminates():
    assert rational_quotients(Fraction(1, 2)) == [2]
    assert parse_real("cf:[0;2]") == Fraction(1, 2)


def test_cf_rejects_out_of_range():
    with pytest.raises(ValueError):
        farey_neighbor_runs(Fraction(3, 2), 1, 5, "+")
    with pytest.raises(ValueError):
        farey_neighbor_runs(QuadraticSurd(1, 2, 1), 1, 5)  # 1 + sqrt(2) > 1


def convergent_fractions(lam, count=None):
    """h_1/k_1, h_2/k_2, ... of lam's quotient stream, or of a Fraction's
    Euclid quotients, at most count of them."""
    quotients = rational_quotients(lam) if isinstance(lam, Fraction) else lam.quotients()
    pairs = islice(convergent_walk(quotients), 1, None if count is None else count + 1)
    return [Fraction(h, k) for h, k in pairs]


def test_convergents_of_inv_sqrt3():
    want = [Fraction(*p) for p in ((0, 1), (1, 1), (1, 2), (3, 5), (4, 7), (11, 19), (15, 26))]
    assert convergent_fractions(INV_SQRT3, 7) == want


def test_convergent_recurrence_seeds():
    # h_0 = 1, h_1 = 0, k_0 = 0, k_1 = 1 and the standard recurrence
    quotients = (3, 1, 4, 1, 5)
    pairs = list(convergent_walk(quotients))
    for n in range(1, len(pairs) - 1):
        b = quotients[n - 1]
        assert pairs[n + 1] == (
            b * pairs[n][0] + pairs[n - 1][0],
            b * pairs[n][1] + pairs[n - 1][1],
        )
    ks = [k for _, k in pairs[1:]]
    assert all(k2 > k1 for k1, k2 in zip(ks[1:], ks[2:]))  # k_n increasing from n=2


def test_rational_reproduced_by_last_convergent():
    value = Fraction(355, 1130)
    assert convergent_fractions(value, 50)[-1] == value


@settings(max_examples=100, deadline=None)
@given(num=st.integers(1, 400), den=st.integers(2, 401))
def test_rational_roundtrip_property(num, den):
    if num >= den:
        num, den = den, num + 1
    value = Fraction(num, den)
    quotients = rational_quotients(value)
    assert convergent_fractions(value)[-1] == value
    # a finite cf: literal folds its quotients back into the Fraction
    assert parse_real(f"cf:[0;{','.join(map(str, quotients))}]") == value


def test_convergents_alternate_and_approximate():
    # |x - h_n/k_n| < 1/(k_n k_{n+1}) for n >= 2
    pairs = list(islice(convergent_walk(INV_SQRT3.quotients()), 1, 21))
    for n in range(1, len(pairs) - 1):
        h, k = pairs[n]
        hn, kn = pairs[n + 1]
        gap = Fraction(1, k * kn)
        diff = INV_SQRT3.cmp(Fraction(h, k))
        assert diff != 0
        # bracketing: consecutive convergents straddle the value
        assert INV_SQRT3.cmp(Fraction(h, k)) != INV_SQRT3.cmp(Fraction(hn, kn))
        assert abs(float(INV_SQRT3) - h / k) < float(gap)


def test_k_ratio_lower_bound_for_inv_sqrt3():
    pairs = list(islice(convergent_walk(INV_SQRT3.quotients()), 1, 42))
    ratios = [k1 / k2 for (_, k1), (_, k2) in zip(pairs[1:], pairs[2:])]
    assert min(ratios[:40]) > 0.33


def test_k_ratio_golden_limit_for_all_ones_tail():
    golden = parse_real("cf:[0;(1)]")
    pairs = list(islice(convergent_walk(golden.quotients()), 1, 42))
    ratio = pairs[-2][1] / pairs[-1][1]
    assert abs(ratio - (math.sqrt(5) - 1) / 2) < 1e-6


# ---------------------------------------------------------------------------
# Exact real specifications
# ---------------------------------------------------------------------------


def test_surd_cmp_exact():
    inv_sqrt2 = QuadraticSurd(0, 2, 2)
    assert inv_sqrt2.cmp(Fraction(7, 10)) == 1
    assert inv_sqrt2.cmp(Fraction(707107, 1000000)) == -1
    assert INV_SQRT3.cmp(Fraction(4, 7)) == 1
    assert INV_SQRT3.cmp(Fraction(7, 12)) == -1


def test_surd_rejects_square_radicand():
    with pytest.raises(ValueError):
        QuadraticSurd(0, 9, 5)


def test_inv_sqrt3_cmp_against_isqrt():
    # a = floor(q / sqrt(3)) = isqrt(q^2 // 3): a/q lies below, (a+1)/q above
    for q in range(1, 500):
        a = math.isqrt(q * q // 3)
        assert INV_SQRT3.cmp(Fraction(a, q)) == 1
        assert INV_SQRT3.cmp(Fraction(a + 1, q)) == -1


def test_generated_cf_cmp_against_float():
    val = math.e - 2
    for frac in (Fraction(7, 10), Fraction(5, 7), Fraction(719, 1001), Fraction(72, 100)):
        want = (val > float(frac)) - (val < float(frac))
        assert E_MINUS_2.cmp(frac) == want


def test_parse_real_grammar():
    assert parse_real("rat:3/7") == Fraction(3, 7)
    assert parse_real("const:inv-sqrt3") is INV_SQRT3
    assert parse_real("const:e-2") is E_MINUS_2
    surd = parse_real("surd:(-1+sqrt(5))/2")
    assert isinstance(surd, QuadraticSurd) and float(surd) == pytest.approx((math.sqrt(5) - 1) / 2)
    lit = parse_real("cf:[0;1,2,3]")
    assert isinstance(lit, Fraction) and lit == Fraction(7, 10)  # a finite literal is a Fraction
    per = parse_real("cf:[0;(1,2)]")
    assert isinstance(per, GeneratedCF) and per.periodic
    with pytest.raises(ValueError):
        parse_real("nope:1")
    with pytest.raises(ValueError):
        parse_real("cf:[0;]")


# ---------------------------------------------------------------------------
# Farey neighbors
# ---------------------------------------------------------------------------


def test_farey_neighbors_inv_sqrt3_order_15():
    nb = farey_neighbors(INV_SQRT3, 15)
    assert (nb.left, nb.right) == (Fraction(4, 7), Fraction(7, 12))


def test_farey_neighbors_order_1():
    nb = farey_neighbors(INV_SQRT3, 1)
    assert (nb.left, nb.right) == (Fraction(0), Fraction(1))


def test_farey_neighbors_rejects_rational():
    with pytest.raises(ValueError):
        farey_neighbors(Fraction(1, 2), 10)


def test_farey_neighbors_corpus_vs_brute_force():
    specs = [parse_real(s) for s in CORPUS]
    assert len(specs) == 20
    for order in range(1, 201):
        seq = farey_sequence(order)
        for spec in specs:
            # oracle: position in the explicit Farey list via exact comparison
            lo, hi = 0, len(seq) - 1
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if spec.cmp(seq[mid]) > 0:
                    lo = mid
                else:
                    hi = mid
            nb = farey_neighbors(spec, order)
            assert (nb.left, nb.right) == (seq[lo], seq[hi]), (spec, order)
            sb = farey_neighbors_stern_brocot(spec, order)
            assert (sb.left, sb.right) == (nb.left, nb.right)
            assert spec.cmp(nb.left) > 0 > spec.cmp(nb.right)


def test_farey_neighbor_walk_matches_single_steps():
    for text in CORPUS:
        spec = parse_real(text)
        walk = [(q, *pair) for lo, hi, *pair in farey_neighbor_runs(spec, 3, 400) for q in range(lo, hi + 1)]
        assert [q for q, *_ in walk] == list(range(3, 401))
        for q, *pair in walk[::7] + walk[-1:]:
            assert list(farey_neighbor_runs(spec, q, q)) == [(q, q, *pair)], (text, q)


def test_farey_neighbor_walk_checks_arguments_before_iteration():
    with pytest.raises(ValueError, match="quotient stream requires a value in"):
        farey_neighbor_runs(parse_real("surd:(1+sqrt(5))/2"), 1, 10)
    with pytest.raises(ValueError):
        farey_neighbor_runs(Fraction(1, 2), 1, 10)  # a cut point needs a side
    with pytest.raises(ValueError):
        farey_neighbor_runs(INV_SQRT3, 5, 4)


def test_convergent_walk_starts_at_one_over_zero():
    pairs = list(convergent_walk([1, 1, 2, 1, 2]))
    assert pairs == [(1, 0), (0, 1), (1, 1), (1, 2), (3, 5), (4, 7), (11, 19)]


def sided_neighbors(frac, side, order):
    """The Farey neighbours of a cut point at one order, on one side: the
    one run of farey_neighbor_runs over that order, as two Fractions."""
    ((_, _, a1, q1, a2, q2),) = farey_neighbor_runs(frac, order, order, side)
    return Fraction(a1, q1), Fraction(a2, q2)


def test_farey_neighbors_sided_examples():
    assert sided_neighbors(Fraction(1, 2), "+", 4) == (Fraction(1, 2), Fraction(2, 3))
    assert sided_neighbors(Fraction(1, 2), "-", 4) == (Fraction(1, 3), Fraction(1, 2))
    assert sided_neighbors(Fraction(0), "+", 1) == (Fraction(0), Fraction(1))


def test_farey_neighbors_sided_vs_sequence():
    for order in (3, 10, 37):
        seq = farey_sequence(order)
        for i, frac in enumerate(seq):
            if i + 1 < len(seq):
                assert sided_neighbors(frac, "+", order)[1] == seq[i + 1]
            if i > 0:
                assert sided_neighbors(frac, "-", order)[0] == seq[i - 1]


def test_farey_neighbors_sided_errors():
    with pytest.raises(ValueError):
        farey_neighbor_runs(Fraction(1, 9), 4, 4, "+")  # denominator too large
    with pytest.raises(ValueError):
        farey_neighbor_runs(Fraction(0), 4, 4, "-")
    with pytest.raises(ValueError):
        farey_neighbor_runs(Fraction(1), 4, 4, "+")
    with pytest.raises(ValueError):
        farey_neighbor_runs(Fraction(1, 2), 4, 4, "^")


def test_cut_point_runs_match_the_scan_for_small_denominators():
    # every cut point a/b with b <= 40 on each side that has a neighbour,
    # from the first order that holds it, the next, 2b + 3 and a fixed 57
    q_max = 120
    for b in range(1, 41):
        for a in range(b + 1):
            if math.gcd(a, b) != 1:
                continue
            frac = Fraction(a, b)
            for side in "+-" if 0 < a < b else "+" if a == 0 else "-":
                scan = list(farey_neighbor_scan(frac, b, q_max, side))
                for q_min in (b, b + 1, 2 * b + 3, 57):
                    walk = [(q, *pair) for lo, hi, *pair in farey_neighbor_runs(frac, q_min, q_max, side)
                            for q in range(lo, hi + 1)]
                    assert walk == scan[q_min - b :], (frac, side, q_min)


@settings(max_examples=60, deadline=None)
@given(order=st.integers(1, 120))
def test_neighbors_bracket_and_unimodular_property(order):
    nb = farey_neighbors(INV_SQRT3, order)
    a1, q1 = nb.left.numerator, nb.left.denominator
    a2, q2 = nb.right.numerator, nb.right.denominator
    assert a2 * q1 - a1 * q2 == 1
    assert q1 <= order and q2 <= order
    assert q1 + q2 > order  # no fraction of the order fits strictly between
