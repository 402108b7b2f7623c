import gc
import itertools
import random
import weakref
from math import gcd, isqrt, lcm

import pytest
from conftest import crt, form_power, two_phase_pillars, xgcd

from aptgroup import classgroup
from aptgroup.basis import BasisTable
from aptgroup.classgroup import (
    ClassGroupTable,
    DiscriminantMismatchError,
    FormClass,
    PillarConfigError,
    _cyclic_powers,
    _enumerate_reduced,
    _invariant_factors,
    _prime_power_parts,
    compose_forms,
    prime_form,
    principal_form,
    quotient_setup,
    reduce_form,
)
from aptgroup.primes import is_squarefree, primes_up_to
from aptgroup.quadfield import Modulus, kronecker, splitting_type


def kronecker_loop(d, a):
    """(d/a) for a >= 1: (d/2) for each factor 2 of a, then the Jacobi symbol of the odd part."""
    sign = 1
    while a % 2 == 0:
        if d % 2 == 0:
            return 0
        a //= 2
        if d % 8 in (3, 5):
            sign = -sign
    d %= a
    while d:
        while d % 2 == 0:
            d //= 2
            if a % 8 in (3, 5):
                sign = -sign
        d, a = a, d
        if d % 4 == 3 and a % 4 == 3:
            sign = -sign
        d %= a
    return sign if a == 1 else 0


def equivalent_reduced_by_moves(a, b, c, coeff_cap):
    """All reduced forms reachable from (a, b, c) by the standard moves.

    Explores S: (a,b,c) -> (c,-b,a) and T^k: b -> b + 2ka within a
    coefficient bound; proper equivalence oracle independent of
    reduce_form's own descent.
    """
    seen = set()
    stack = [(a, b, c)]
    reduced = set()
    while stack:
        f = stack.pop()
        if f in seen:
            continue
        seen.add(f)
        fa, fb, fc = f
        if max(abs(fa), abs(fb), abs(fc)) > coeff_cap:
            continue
        if 0 < fa and -fa < fb <= fa <= fc and (fb >= 0 or (fa != fc and fa != abs(fb))):
            reduced.add(f)
        stack.append((fc, -fb, fa))
        for k in (-1, 1):
            stack.append((fa, fb + 2 * k * fa, fa * k * k + fb * k + fc))
    return reduced



def concordant_compose(f, g):
    """Reference composition through concordant representatives.

    f is moved by a determinant-1 substitution to an equivalent form whose
    leading coefficient A is coprime to 2 * g.a * disc (found by search
    over coprime (x, y) in growing boxes); the middle coefficients are then
    aligned by CRT, and the two concordant forms compose to (A * g.a, B, *).
    Shares nothing with compose_forms but reduce_form.
    """
    d = f.disc
    modulus = 2 * g.a * d
    for s in itertools.count(1):
        box = [(x, y) for x in range(-s, s + 1) for y in range(-s, s + 1)
               if max(abs(x), abs(y)) == s and gcd(x, y) == 1]
        hit = [(x, y) for x, y in box if gcd(f.a * x * x + f.b * x * y + f.c * y * y, modulus) == 1]
        if hit:
            x, y = hit[0]
            break
    _, w, zneg = xgcd(x, y)
    z = -zneg
    aa = f.a * x * x + f.b * x * y + f.c * y * y
    bb = 2 * (f.a * x * z + f.c * y * w) + f.b * (x * w + y * z)
    b0, _ = crt(bb % (2 * aa), 2 * aa, g.b % (2 * g.a), 2 * g.a)
    a0 = aa * g.a
    c0, rest = divmod(b0 * b0 - d, 4 * a0)
    assert rest == 0, "the concordant forms have another discriminant"
    return reduce_form(a0, b0, c0)

def _peel_structure(elements, mul, ident):
    """Greedy maximal-order peeling of a finite abelian group.

    Returns [(generator, order)] realizing the group as an internal direct
    sum of cyclic subgroups; the orders are the invariant factors, largest
    first.  After picking an element of maximal order in the quotient by
    the span built so far, the element is adjusted by a span element so
    that its absolute order equals its quotient order (the span is a pure
    subgroup, so such an adjustment always exists).  Ties are broken by
    the natural ordering of the elements, so the output is deterministic.
    """

    def power(x, k):
        acc = x
        for _ in range(k - 1):
            acc = mul(acc, x)
        return acc

    out = []
    span = {ident}
    while len(span) < len(elements):
        best, best_ord = None, 0
        for e in elements:
            k, cur = 1, e
            while cur not in span:
                cur = mul(cur, e)
                k += 1
            if k > best_ord:
                best, best_ord = e, k
        gen = None
        for h in sorted(span):
            cand = mul(best, h)
            if power(cand, best_ord) == ident:
                gen = cand
                break
        assert gen is not None, "pure-subgroup adjustment must exist"
        out.append((gen, best_ord))
        powers = [ident]
        for _ in range(best_ord - 1):
            powers.append(mul(powers[-1], gen))
        span = {mul(s, p) for s in span for p in powers}
    return out


def enumerate_by_scan(disc):
    """Reduced primitive forms of discriminant disc, by scanning every (a, b).

    O(|disc|): for each a <= sqrt(|disc|/3) and each b in (-a, a] of the
    parity of disc, keep (a, b, c) when 4a divides b^2 - disc and the form
    is reduced and primitive.  Shares no code with the divisor enumeration.
    """
    out = []
    for a in range(1, isqrt(abs(disc) // 3) + 1):
        # b^2 = disc (mod 4) forces b = disc (mod 2)
        for b in range(-a + 1 + (a + 1 + disc) % 2, a + 1, 2):
            if (b * b - disc) % (4 * a):
                continue
            c = (b * b - disc) // (4 * a)
            if c < a or gcd(gcd(a, abs(b)), c) != 1:
                continue
            if b < 0 and (a == c or a == abs(b)):
                continue
            out.append(FormClass(a, b, c))
    return sorted(out)


def omega(n):
    """Number of distinct prime divisors of n, by trial division."""
    n, count, q = abs(n), 0, 2
    while q * q <= n:
        if n % q == 0:
            count += 1
            while n % q == 0:
                n //= q
        q += 1
    return count + (n > 1)

class TestReduceForm:
    @pytest.mark.parametrize(
        "form,want",
        [((1, 1, 6), (1, 1, 6)), ((3, 1, 2), (2, -1, 3)), ((2, 1, 3), (2, 1, 3))],
    )
    def test_disc_minus_23(self, form, want):
        got = reduce_form(*form)
        assert (got.a, got.b, got.c, got.disc) == (*want, -23)

    def test_orbit_oracle(self):
        orbit = equivalent_reduced_by_moves(3, 1, 2, coeff_cap=40)
        assert orbit == {(2, -1, 3)}

    def test_idempotent(self):
        rng = random.Random(7)
        table = ClassGroupTable(Modulus(974))
        for f in table.forms:
            # unreduce by random moves, then reduce back
            a, b, c = f.a, f.b, f.c
            for _ in range(6):
                if rng.random() < 0.5:
                    a, b, c = c, -b, a
                else:
                    k = rng.choice((-2, -1, 1, 2))
                    a, b, c = a, b + 2 * k * a, a * k * k + b * k + c
            assert reduce_form(a, b, c) == f
            assert reduce_form(f.a, f.b, f.c) == f

    def test_formclass_rejects_unreduced(self):
        with pytest.raises(ValueError) as got:
            FormClass(3, 1, 2)
        assert str(got.value) == "form (3, 1, 2) is not reduced"
        with pytest.raises(ValueError) as got:
            FormClass(2, -2, 3)
        assert str(got.value) == "form (2, -2, 3) is not reduced"
        with pytest.raises(ValueError) as got:
            FormClass(2, 2, 4)
        assert str(got.value) == "form (2, 2, 4) is not primitive"


class TestFormClass:
    def test_compares_and_hashes_as_its_tuple(self):
        forms = ClassGroupTable(Modulus(974)).forms
        for f in forms:
            t = (f.a, f.b, f.c)
            assert hash(f) == hash(t)
            for g in forms:
                u = (g.a, g.b, g.c)
                assert (f == g) == (t == u)
                assert (f != g) == (t != u)
                assert (f < g) == (t < u)
                assert (f <= g) == (t <= u)
        assert sorted(forms, reverse=True) == sorted(forms, key=lambda f: (f.a, f.b, f.c), reverse=True)

    def test_is_immutable(self):
        f = FormClass(2, 1, 3)
        with pytest.raises(AttributeError):
            f.a = 3
        with pytest.raises(AttributeError):
            f.extra = 1
        assert f == FormClass(2, 1, 3)

    def test_fields_repr_disc_inverse(self):
        f = FormClass(2, 1, 3)
        assert (f.a, f.b, f.c) == (2, 1, 3)
        assert repr(f) == "(2, 1, 3)"
        assert f.disc == -23
        assert f.inverse() == FormClass(2, -1, 3)
        assert FormClass(1, 0, 5).inverse() == FormClass(1, 0, 5)


class TestCompose:
    def test_identity_law(self):
        table = ClassGroupTable(Modulus(23))
        e = table.identity
        for f in table.forms:
            assert compose_forms(e, f) == f

    def test_inverse_pair(self):
        got = compose_forms(FormClass(2, 1, 3), FormClass(2, -1, 3))
        assert got == principal_form(-23)

    def test_cyclic_three_squaring(self):
        # h(-23) = 3: the square of a generator must be its inverse
        g = FormClass(2, 1, 3)
        g2 = compose_forms(g, g)
        assert g2 == FormClass(2, -1, 3)
        assert g2 != g and compose_forms(g, g2) == principal_form(-23)

    def test_discriminant_mismatch(self):
        with pytest.raises(DiscriminantMismatchError):
            compose_forms(principal_form(-23), principal_form(-35))

    @pytest.mark.parametrize("m", [23, 35, 974, 111])
    def test_group_axioms(self, m):
        table = ClassGroupTable(Modulus(m))
        forms = table.forms
        rng = random.Random(m)
        fs = [rng.choice(forms) for _ in range(30)]
        for f, g, h in zip(fs, fs[1:], fs[2:]):
            fg = compose_forms(f, g)
            assert fg in forms  # closure onto reduced representatives
            assert fg == compose_forms(g, f)
            assert compose_forms(fg, h) == compose_forms(f, compose_forms(g, h))
            assert compose_forms(f, f.inverse()) == table.identity

    @pytest.mark.parametrize("m", [35, 23, 974, 614, 719])
    def test_matches_concordant_oracle_all_pairs(self, m):
        forms = ClassGroupTable(Modulus(m)).forms
        for f in forms:
            for g in forms:
                assert compose_forms(f, g) == concordant_compose(f, g), (f, g)

    def test_matches_concordant_oracle_h500(self):
        forms = ClassGroupTable(Modulus(2000002)).forms
        assert len(forms) == 500
        rng = random.Random(2000002)
        for _ in range(2000):
            f, g = rng.choice(forms), rng.choice(forms)
            assert compose_forms(f, g) == concordant_compose(f, g), (f, g)

    @pytest.mark.parametrize("m", [23, 35, 974])
    def test_orders_divide_h(self, m):
        table = ClassGroupTable(Modulus(m))
        for f in table.forms:
            assert table.h % table.order_of(f) == 0
        assert form_power(table, table.forms[-1], table.h) == table.identity


class TestEnumerate:
    @pytest.mark.parametrize(
        "m,h",
        [(35, 2), (23, 3), (974, 36), (30030, 128), (46189, 160), (62790, 224),
         (10000019, 1275), (30000001, 3496)],
    )
    def test_class_numbers(self, m, h):
        assert ClassGroupTable(Modulus(m)).h == h

    def test_matches_scan_oracle(self):
        moduli = [m for m in range(5, 3000) if is_squarefree(m)] + [2000002, 3000010]
        for m in moduli:
            disc = Modulus(m).disc
            assert _enumerate_reduced(disc) == enumerate_by_scan(disc), m

    @pytest.mark.parametrize("m", [15015, 30030, 255255, 510510, 4849845])
    def test_many_small_prime_factors_match_scan_oracle(self, m):
        # n = (b^2 - disc)/4 with many small factors: many divisors below sqrt(n) to build
        disc = Modulus(m).disc
        assert _enumerate_reduced(disc) == enumerate_by_scan(disc), m

    def test_structure_examples(self):
        assert list(ClassGroupTable(Modulus(23)).structure) == [3]
        assert list(ClassGroupTable(Modulus(974)).structure) == [12, 3]
        # h(-7) = 1: trivial group has empty structure
        assert list(ClassGroupTable(Modulus(7)).structure) == []

    @pytest.mark.parametrize(
        "m,want", [(974, (12, 3)), (2437, (6, 3)), (3299, (9, 3)), (3886, (6, 6)), (105, (2, 2, 2))]
    )
    def test_structure_examples_of_higher_rank(self, m, want):
        assert ClassGroupTable(Modulus(m)).structure == want

    def test_structure_doubles_the_square_factors(self):
        # Cl's invariant factors are those of Cl^2, padded with 1s to the
        # 2-rank r and doubled in the first r places; Cl^2 is peeled apart
        moduli = [m for m in range(5, 400) if is_squarefree(m)] + [974, 2437, 3299, 3886, 30030]
        for m in moduli:
            table = ClassGroupTable(Modulus(m))
            rank = len(table.twotorsion).bit_length() - 1
            padded = table.square_factors + (1,) * (rank - len(table.square_factors))
            assert table.structure == tuple(2 * n for n in padded[:rank]) + padded[rank:], m
            squares = sorted({compose_forms(f, f) for f in table.forms})
            peeled = _peel_structure(squares, compose_forms, table.identity)
            assert table.square_factors == tuple(n for _, n in peeled), m

    def test_structure_and_orders_match_peel_oracle(self):
        # 30030, 46189 and 62790 have 2-rank 5, 4 and 5: most of their
        # classes are not squares, so order_of composes on demand
        moduli = [m for m in range(5, 400) if is_squarefree(m)]
        moduli += [974, 2437, 3299, 3886, 30030, 46189, 62790]
        for m in moduli:
            table = ClassGroupTable(Modulus(m))
            peeled = _peel_structure(table.forms, compose_forms, table.identity)
            assert table.structure == tuple(n for _, n in peeled), m
            for f in table.forms:
                k, cur = 1, f
                while cur != table.identity:
                    cur = compose_forms(cur, f)
                    k += 1
                assert table.order_of(f) == k, (m, f)
                assert (f in table.twotorsion) == (k <= 2), (m, f)

    @pytest.mark.parametrize("m", [974, 3000010])
    def test_cyclic_powers_match_plain_walk(self, m):
        # every form: the identity, order 2 and odd orders among them; the
        # table's powers, read off its walks, are the same lists on Cl^2
        table = ClassGroupTable(Modulus(m))
        ident = table.identity
        for f in table.forms:
            plain = [ident]
            while (nxt := compose_forms(plain[-1], f)) != ident:
                plain.append(nxt)
            assert _cyclic_powers(f, ident) == plain, (m, f)
        for x in {compose_forms(f, f) for f in table.forms}:
            assert table.powers(x) == _cyclic_powers(x, ident), (m, x)

    def test_powers_of_a_composite_order_group_match_one_plain_walk(self):
        # Cl = Cl^2 = C1275 = C3 x C25 x C17 at m = 10000019.  Walking every
        # class took 4.4 s, so one generator g is walked plainly and every
        # x = g^k checked against x^e = g^(k*e mod 1275)
        table = ClassGroupTable(Modulus(10000019))
        ident, n = table.identity, table.h
        assert table.structure == (n,) == (1275,)
        g = next(f for f in table.forms if table.order_of(f) == n)
        plain = [ident]
        while (nxt := compose_forms(plain[-1], g)) != ident:
            plain.append(nxt)
        assert len(plain) == n
        for k, x in enumerate(plain):
            assert table.powers(x) == [plain[k * e % n] for e in range(n // gcd(n, k))], k

    @pytest.mark.parametrize(
        # walking the powers of every class took 1830, 748, 3685 and 1274 compositions
        "m,limit",
        [(3000010, 1830 // 4), (2000002, 748 // 4), (9699690, 3685 // 4), (10000019, 1274 * 55 // 100)],
    )
    def test_table_walks_only_the_squares(self, monkeypatch, m, limit):
        # m = 10000019 has odd h, so Cl^2 = Cl and only the half walks save
        count, compose = 0, classgroup.compose_forms

        def counting_compose(f, g):
            nonlocal count
            count += 1
            return compose(f, g)

        monkeypatch.setattr(classgroup, "compose_forms", counting_compose)
        ClassGroupTable(Modulus(m))
        assert 0 < count <= limit

    def test_structure_is_internal_direct_sum(self):
        # generators come from the peel oracle; their orders are table.structure
        for m in (974, 105):
            table = ClassGroupTable(Modulus(m))
            peeled = _peel_structure(table.forms, compose_forms, table.identity)
            assert tuple(n for _, n in peeled) == table.structure
            seen = set()
            for exps in itertools.product(*[range(n) for _, n in peeled]):
                acc = table.identity
                for (g, _), e in zip(peeled, exps):
                    acc = compose_forms(acc, form_power(table, g, e))
                seen.add(acc)
            assert len(seen) == table.h
            for g, n in peeled:
                assert table.order_of(g) == n

    def test_structure_orders_multiply_to_h(self):
        for m in (23, 35, 974, 101, 102):
            table = ClassGroupTable(Modulus(m))
            prod = 1
            for o in table.structure:
                prod *= o
            assert prod == table.h

    @pytest.mark.parametrize(
        "ns,want",
        [
            ((), ()),
            ((2, 2, 2), (2, 2, 2)),
            ((9, 3), (9, 3)),
            ((6, 6), (6, 6)),
            ((8, 4, 2), (8, 4, 2)),
            ((12, 3), (12, 3)),
            ((64, 4, 2, 2), (64, 4, 2, 2)),
            ((4, 3), (12,)),
            ((2, 4, 3, 5), (60, 2)),
        ],
    )
    def test_invariant_factors_of_synthetic_products(self, ns, want):
        # element orders of Z/n_1 x ... x Z/n_k, with no forms involved
        orders = [
            lcm(*(n // gcd(n, x) for n, x in zip(ns, xs)))
            for xs in itertools.product(*(range(n) for n in ns))
        ]
        assert _invariant_factors(orders) == want

    def test_two_torsion_size_by_genus_theory(self):
        # |Cl[2]| = 2^(t - 1), t the number of primes dividing the discriminant
        for m in range(5, 400):
            if is_squarefree(m):
                table = ClassGroupTable(Modulus(m))
                assert len(table.twotorsion) == 2 ** (omega(table.disc) - 1), m

    def test_class_number_formula(self):
        # h = -(1/|D|) * sum_{a=1}^{|D|-1} chi_D(a) * a, for fundamental D < -4
        kronecker_symbol = pytest.importorskip(
            "sympy.functions.combinatorial.numbers"
        ).kronecker_symbol
        for m in range(5, 200):
            if is_squarefree(m):
                table = ClassGroupTable(Modulus(m))
                d = table.disc
                total = sum(int(kronecker_symbol(d, a)) * a for a in range(1, -d))
                assert table.h * d == total, m

    @pytest.mark.parametrize(
        # the second list has many ramified primes, each sieved at the single root 0
        "moduli", [[m for m in range(5, 1000) if is_squarefree(m)], [30030, 46189, 62790]]
    )
    def test_class_number_matches_analytic_formula(self, moduli):
        # h = sum_{1 <= a <= |D|/2} (D/a) / (2 - (D/2)), for fundamental D < -4
        for m in moduli:
            table = ClassGroupTable(Modulus(m))
            d = table.disc
            total = sum(kronecker_loop(d, a) for a in range(1, -d // 2 + 1))
            assert table.h * (2 - kronecker_loop(d, 2)) == total, m

    @pytest.mark.parametrize("m,size", [(35, 2), (23, 1), (974, 2)])
    def test_two_torsion_size(self, m, size):
        assert len(ClassGroupTable(Modulus(m)).twotorsion) == size

    @pytest.mark.parametrize("m", [23, 35, 974, 105])
    def test_two_torsion_is_ambiguous_forms(self, m):
        table = ClassGroupTable(Modulus(m))
        ambiguous = [f for f in table.forms if f.b == 0 or f.a == f.b or f.a == f.c]
        assert set(table.twotorsion) == set(ambiguous)


class TestClassOfPrime:
    def test_identity_for_L0_primes(self):
        table = ClassGroupTable(Modulus(23))
        for p in (59, 101):
            assert table.class_of_prime(p) == table.identity

    def test_high_order_class(self):
        table = ClassGroupTable(Modulus(974))
        assert table.order_of(table.class_of_prime(3)) > 2

    def test_inert_maps_to_identity(self):
        table = ClassGroupTable(Modulus(23))
        assert table.class_of_prime(5) == table.identity

    @pytest.mark.parametrize("m", [23, 35, 974])
    def test_conjugate_gives_inverse(self, m):
        mod = Modulus(m)
        table = ClassGroupTable(mod)

        for p in primes_up_to(100):
            if p == 2 or kronecker(mod, p) != 1:
                continue
            info = splitting_type(mod, p)
            f = table.class_of_prime(p)
            # build the conjugate ideal's form directly from the other root
            r = p - info.root
            b = 2 * r if mod.disc % 2 == 0 else (r if r % 2 else r - p)
            while b > p:
                b -= 2 * p
            while b <= -p:
                b += 2 * p
            conj = reduce_form(p, b, (b * b - mod.disc) // (4 * p))
            assert compose_forms(f, conj) == table.identity

    @pytest.mark.parametrize("m,p", [(7, 2), (100000007, 2), (23, 3), (35, 17), (974, 5), (974, 3)])
    def test_prime_form_is_the_kth_power(self, m, p):
        # a split 2, odd p at disc = -m and odd p at disc = -4m
        mod = Modulus(m)
        table = ClassGroupTable(mod)
        info = splitting_type(mod, p)
        f = table.class_of_prime(p)
        power = table.identity
        for k in range(1, 41):
            power = compose_forms(power, f)
            a, b, c = prime_form(mod, info, k)
            assert a == p**k and b * b - 4 * a * c == mod.disc, k
            assert reduce_form(a, b, c) == power, k

    def test_membership_in_E_is_conjugation_invariant(self):
        # the 2-torsion test cannot depend on the choice of lifting
        mod = Modulus(974)
        table = ClassGroupTable(mod)
        for p in primes_up_to(300):
            if kronecker(mod, p) != 1:
                continue
            f = table.class_of_prime(p)
            assert (f in table.twotorsion) == (f.inverse() in table.twotorsion)


class TestQuotient:
    def test_pillars_974(self):
        q = quotient_setup(ClassGroupTable(Modulus(974)))
        assert [(pl.p, pl.order) for pl in q.pillars] == [(5, 6), (41, 3)]
        assert list(q.invariant_factors) == [6, 3]

    @pytest.mark.parametrize(
        "m,structure,pillars",
        [
            (10000019, (1275,), [(3, 1275)]),
            (30000001, (3496,), [(7, 1748)]),
            (3000010, (64, 4, 2, 2), [(11, 32), (181, 2)]),
        ],
    )
    def test_pillars_of_large_class_groups(self, m, structure, pillars):
        table = ClassGroupTable(Modulus(m))
        assert table.structure == structure
        assert [(pl.p, pl.order) for pl in quotient_setup(table).pillars] == pillars

    def test_empty_when_E_is_everything(self):
        q = quotient_setup(ClassGroupTable(Modulus(35)))
        assert q.pillars == ()

    def test_pillar_over_two_for_23(self):
        q = quotient_setup(ClassGroupTable(Modulus(23)), (2,))
        assert [(pl.p, pl.order) for pl in q.pillars] == [(2, 3)]

    def test_default_pillar_for_23(self):
        q = quotient_setup(ClassGroupTable(Modulus(23)))
        assert [(pl.p, pl.order) for pl in q.pillars] == [(2, 3)]

    def test_override_rejects_dependent_pillars(self):
        table = ClassGroupTable(Modulus(974))
        with pytest.raises(PillarConfigError):
            quotient_setup(table, (5, 31))  # image of 31 lies in the span of 5

    def test_override_rejects_non_generating(self):
        table = ClassGroupTable(Modulus(974))
        with pytest.raises(PillarConfigError):
            quotient_setup(table, (37,))  # order-2 image cannot generate C6 x C3

    def test_override_rejects_inert(self):
        table = ClassGroupTable(Modulus(974))
        with pytest.raises(PillarConfigError):
            quotient_setup(table, (7,))

    @pytest.mark.parametrize("override", [(4,), (1,), (0,), (-5,), (5, 9)])
    def test_override_rejects_non_prime(self, override):
        table = ClassGroupTable(Modulus(974))
        with pytest.raises(PillarConfigError, match="not a prime"):
            quotient_setup(table, override)

    @pytest.mark.parametrize(
        "override,error",
        [((3,), "pillar prime 3 has trivial quotient image"), ((4,), "pillar 4 is not a prime")],
    )
    def test_override_on_trivial_quotient_is_validated(self, override, error):
        table = ClassGroupTable(Modulus(35))
        with pytest.raises(PillarConfigError) as got:
            quotient_setup(table, override)
        assert str(got.value) == error
        assert quotient_setup(table, ()).pillars == ()

    @pytest.mark.parametrize(
        "override,pillars",
        [
            ((181, 11), [(181, 2), (11, 32)]),
            ((11,), "pillar images span 32 of 64 quotient classes"),
        ],
    )
    def test_override_on_non_cyclic_quotient(self, override, pillars):
        table = ClassGroupTable(Modulus(3000010))
        if isinstance(pillars, str):
            with pytest.raises(PillarConfigError) as got:
                quotient_setup(table, override)
            assert str(got.value) == pillars
        else:
            q = quotient_setup(table, override)
            assert [(pl.p, pl.order) for pl in q.pillars] == pillars
            assert len(set(map(q.coords, table.forms))) == q.size == 64

    def test_coords_roundtrip(self):
        table = ClassGroupTable(Modulus(974))
        q = quotient_setup(table)
        rng = random.Random(1)
        for f in rng.sample(table.forms, 12):
            exps = q.coords(f)
            acc = table.identity
            for pl, e in zip(q.pillars, exps):
                acc = compose_forms(acc, form_power(table, table.class_of_prime(pl.p), e))
            assert compose_forms(acc, acc) == compose_forms(f, f)

    def test_quotient_is_memoised_per_pillar_choice(self):
        # a basis table built on a class group reuses the quotient made for it
        table = ClassGroupTable(Modulus(974))
        q = quotient_setup(table)
        assert BasisTable(Modulus(974), table=table).quotient is q
        override = quotient_setup(table, [5, 41])
        assert quotient_setup(table, (5, 41)) is override and override is not q

    @staticmethod
    def counted_quotient(monkeypatch, m):
        """The default quotient of m, with its compositions and scanned split primes."""
        table = ClassGroupTable(Modulus(m))
        counts = {"compose": 0, "scanned": 0}
        compose, stream = classgroup.compose_forms, classgroup._split_prime_infos

        def counting_compose(f, g):
            counts["compose"] += 1
            return compose(f, g)

        def counting_stream(mod):
            for info in stream(mod):
                counts["scanned"] += 1
                yield info

        monkeypatch.setattr(classgroup, "compose_forms", counting_compose)
        monkeypatch.setattr(classgroup, "_split_prime_infos", counting_stream)
        return quotient_setup(table), counts["compose"], counts["scanned"]

    @pytest.mark.parametrize("m,size", [(2000002, 125), (614, 17), (100000007, 7253)])
    def test_compositions_at_most_two_per_class_and_one_per_scanned_prime(self, monkeypatch, m, size):
        q, compose, scanned = self.counted_quotient(monkeypatch, m)
        assert q.size == size and q.invariant_factors == (size,)
        # a cyclic quotient of odd prime-power order: phase one scans nothing,
        # a scanned prime's image is reduced from its squared prime form, and
        # the pillar image's powers are read off the table's walk
        assert scanned > 0 and compose == 0

    def test_last_span_of_a_prime_is_not_built(self, monkeypatch):
        # C6 x C3: the 3-part has two slots, and only the first slot's span
        # is read, by the second; building the second's too took 15
        q, compose, _ = self.counted_quotient(monkeypatch, 974)
        assert q.invariant_factors == (6, 3) and [pl.p for pl in q.pillars] == [5, 41]
        assert compose == 11

    def test_composite_cyclic_factor_is_walked_once(self, monkeypatch):
        # C1275 = C3 x C25 x C17: its generator is walked once, and the
        # pick's powers are read off that walk; walking them again took 3096
        q, compose, scanned = self.counted_quotient(monkeypatch, 10000019)
        assert q.invariant_factors == (1275,)
        assert 0 < compose <= q.size + scanned

    def test_default_pillars_match_the_two_phase_rule(self):
        # a cyclic q-part takes its skeleton element off the walks; the
        # oracle scans split primes for it, and the pillars are the same
        moduli = [m for m in range(5, 1000) if is_squarefree(m)] + [10000019]
        for m in moduli:
            table = ClassGroupTable(Modulus(m))
            assert [pl.p for pl in quotient_setup(table).pillars] == two_phase_pillars(table), m

    def test_class_mod_two_torsion(self):
        table = ClassGroupTable(Modulus(974))
        # p in L0 squares to the identity
        f937 = table.class_of_prime(937)
        assert compose_forms(f937, f937) == table.identity
        # the first pillar generates the C6 factor
        f5 = table.class_of_prime(5)
        assert table.order_of(compose_forms(f5, f5)) == 6


class TestFreedByReferenceCounting:
    """A table and its quotients form no reference cycle, so they die with their last reference."""

    @pytest.fixture(autouse=True)
    def no_collector(self):
        enabled = gc.isenabled()
        gc.disable()
        try:
            yield
        finally:
            if enabled:
                gc.enable()

    @pytest.mark.parametrize("pillars", [None, (5, 97)])
    def test_basis_table_class_group_and_quotient(self, pillars):
        bt = BasisTable(Modulus(974), pillars)
        bt.beta(3)
        refs = [weakref.ref(bt), weakref.ref(bt.table), weakref.ref(bt.quotient)]
        del bt
        assert [ref() for ref in refs] == [None, None, None]

    def test_class_group_after_a_refused_override(self):
        table = ClassGroupTable(Modulus(974))
        quotient = quotient_setup(table)
        with pytest.raises(PillarConfigError):
            quotient_setup(table, (5, 31))
        refs = [weakref.ref(table), weakref.ref(quotient)]
        del table, quotient
        assert [ref() for ref in refs] == [None, None]


ORACLE_PRIMES = primes_up_to(1 << 17)


class CosetQuotient:
    """Reference quotient: Cl modulo 2-torsion as canonical coset representatives.

    Each coset is named by its smallest form.  The invariant factors come
    from a structure peel over the cosets, the default pillars from the
    two-phase rule in coset arithmetic (with a fallback to the smallest
    independent prime after 3000 candidates), and the coordinates from a
    walk over every exponent vector.  Shares only composition, the peel
    and the prime-power split with QuotientData.
    """

    def __init__(self, table, override=None):
        self.table = table
        self.ident = self.rep(table.identity)
        self.cosets = sorted({self.rep(f) for f in table.forms})
        self.invariant_factors = tuple(
            n for _, n in _peel_structure(self.cosets, self.mul, self.ident)
        )
        self._stream = (p for p in ORACLE_PRIMES if kronecker(table.mod, p) == 1)
        self._split = []
        self._images = {}
        if len(self.cosets) == 1:
            self.pillars = []
        elif override is not None:
            self.pillars = self.override_pillars(override)
        else:
            self.pillars = self.default_pillars()
        self._coords = {}
        for exps in itertools.product(*(range(o) for _, o in self.pillars)):
            acc = self.ident
            for (p, _), e in zip(self.pillars, exps):
                acc = self.mul(acc, form_power(table, table.class_of_prime(p), e))
            self._coords.setdefault(acc, exps)

    def rep(self, f):
        return min(compose_forms(f, e) for e in self.table.twotorsion)

    def mul(self, f, g):
        return self.rep(compose_forms(f, g))

    def split(self):
        """The split primes in increasing order, computed as far as they are read."""
        i = 0
        while True:
            while i >= len(self._split):
                self._split.append(next(self._stream))
            yield self._split[i]
            i += 1

    def image(self, p):
        if p not in self._images:
            self._images[p] = self.rep(self.table.class_of_prime(p))
        return self._images[p]

    def order(self, f):
        k, cur = 1, f
        while cur not in self.table.twotorsion:
            cur = compose_forms(cur, f)
            k += 1
        return k

    def span(self, f):
        out, cur = {self.ident}, self.rep(f)
        while cur != self.ident:
            out.add(cur)
            cur = self.mul(cur, f)
        return frozenset(out)

    def join(self, a, b):
        return frozenset(self.mul(x, y) for x in a for y in b)

    def default_pillars(self):
        ident = self.ident
        slots = sorted(
            (s for tau in self.invariant_factors for s in _prime_power_parts(tau)),
            key=lambda s: (s[0], -s[1]),
        )
        skeleton, used, acc_by_q = [], set(), {}
        for q, qk in slots:
            acc = acc_by_q.get(q, frozenset({ident}))
            for p in self.split():
                if p in used or self.order(self.image(p)) != qk:
                    continue
                span = self.span(self.image(p))
                if span & acc == {ident}:
                    used.add(p)
                    skeleton.append((q, qk, span))
                    acc_by_q[q] = self.join(acc, span)
                    break
        pillars, chosen, accumulated = [], set(), frozenset({ident})
        for tau in self.invariant_factors:
            target = frozenset({ident})
            for q, qk in _prime_power_parts(tau):
                hit = next(s for s in skeleton if s[:2] == (q, qk))
                skeleton.remove(hit)
                target = self.join(target, hit[2])
            def fits(ps):
                return (p for p in ps if p not in chosen and self.order(self.image(p)) == tau)

            pick = next((p for p in fits(itertools.islice(self.split(), 3000)) if self.span(self.image(p)) == target), None)
            if pick is None:
                pick = next(p for p in fits(self.split()) if self.span(self.image(p)) & accumulated == {ident})
            chosen.add(pick)
            accumulated = self.join(accumulated, self.span(self.image(pick)))
            pillars.append((pick, tau))
        return pillars

    def override_pillars(self, override):
        accumulated, pillars = frozenset({self.ident}), []
        for p in override:
            if kronecker(self.table.mod, p) != 1:
                raise PillarConfigError(f"pillar prime {p} does not split")
            order = self.order(self.image(p))
            if order == 1:
                raise PillarConfigError(f"pillar prime {p} has trivial quotient image")
            span = self.span(self.image(p))
            if span & accumulated != {self.ident}:
                raise PillarConfigError(f"pillar prime {p} is not independent of the others")
            accumulated = self.join(accumulated, span)
            pillars.append((p, order))
        if len(accumulated) != len(self.cosets):
            raise PillarConfigError(
                f"pillar images span {len(accumulated)} of {len(self.cosets)} quotient classes"
            )
        return pillars

    def coords(self, f):
        return self._coords[self.rep(f)]


def assert_matches_coset_oracle(m, override=None):
    table = ClassGroupTable(Modulus(m))
    q = quotient_setup(table, override)
    ref = CosetQuotient(table, override)
    assert q.invariant_factors == ref.invariant_factors
    assert q.size == len(ref.cosets)
    assert [(pl.index, pl.p, pl.order, pl.info) for pl in q.pillars] == [
        (j, p, o, splitting_type(table.mod, p))
        for j, (p, o) in enumerate(ref.pillars, start=1)
    ]
    for f in table.forms:
        assert q.coords(f) == ref.coords(f), (m, f)


class TestQuotientAgainstCosetOracle:
    def test_default_pillars_small_moduli(self):
        for m in range(5, 400):
            if is_squarefree(m):
                assert_matches_coset_oracle(m)

    @pytest.mark.parametrize("m,override", [(23, (2,)), (23, (3,)), (974, (5, 41))])
    def test_overrides(self, m, override):
        assert_matches_coset_oracle(m, override)

    @pytest.mark.parametrize("override", [(5, 31), (37,), (7,)])
    def test_rejected_overrides(self, override):
        table = ClassGroupTable(Modulus(974))
        with pytest.raises(PillarConfigError) as ref:
            CosetQuotient(table, override)
        with pytest.raises(PillarConfigError) as got:
            quotient_setup(table, override)
        assert str(got.value) == str(ref.value)
