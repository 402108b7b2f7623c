import itertools
import random
from math import gcd

import pytest

from aptgroup.classgroup import (
    ClassGroupTable,
    DiscriminantMismatchError,
    FormClass,
    PillarConfigError,
    compose_forms,
    primary_structure,
    principal_form,
    quotient_setup,
    reduce_form,
)
from aptgroup.primes import crt, primes_up_to, xgcd
from aptgroup.quadfield import Modulus, kronecker, splitting_type


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
    return reduce_form(a0, b0, (b0 * b0 - d) // (4 * a0), d)

class TestReduceForm:
    @pytest.mark.parametrize(
        "form,want",
        [((1, 1, 6), (1, 1, 6)), ((3, 1, 2), (2, -1, 3)), ((2, 1, 3), (2, 1, 3))],
    )
    def test_disc_minus_23(self, form, want):
        got = reduce_form(*form, disc=-23)
        assert (got.a, got.b, got.c) == want

    def test_orbit_oracle(self):
        orbit = equivalent_reduced_by_moves(3, 1, 2, coeff_cap=40)
        assert orbit == {(2, -1, 3)}

    def test_discriminant_mismatch(self):
        with pytest.raises(DiscriminantMismatchError):
            reduce_form(1, 1, 6, disc=-35)

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
        with pytest.raises(ValueError):
            FormClass(3, 1, 2)
        with pytest.raises(ValueError):
            FormClass(2, 2, 4)  # imprimitive


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
        assert table.power(table.forms[-1], table.h) == table.identity


class TestEnumerate:
    @pytest.mark.parametrize("m,h", [(35, 2), (23, 3), (974, 36)])
    def test_class_numbers(self, m, h):
        assert ClassGroupTable(Modulus(m)).h == h

    def test_structure_examples(self):
        assert [o for _, o in ClassGroupTable(Modulus(23)).structure] == [3]
        assert [o for _, o in ClassGroupTable(Modulus(974)).structure] == [12, 3]
        # h(-7) = 1: trivial group has empty structure
        assert list(ClassGroupTable(Modulus(7)).structure) == []

    def test_primary_structure(self):

        table = ClassGroupTable(Modulus(974))
        parts = primary_structure(table)
        assert [o for _, o in parts] == [4, 3, 3]
        for g, o in parts:
            assert table.order_of(g) == o
        assert [o for _, o in primary_structure(ClassGroupTable(Modulus(23)))] == [3]

    def test_structure_is_internal_direct_sum(self):
        from itertools import product as iproduct

        for m in (974, 105):
            table = ClassGroupTable(Modulus(m))
            seen = set()
            for exps in iproduct(*[range(n) for _, n in table.structure]):
                acc = table.identity
                for (g, _), e in zip(table.structure, exps):
                    acc = table.compose(acc, table.power(g, e))
                seen.add(acc)
            assert len(seen) == table.h
            for g, n in table.structure:
                assert table.order_of(g) == n

    def test_structure_orders_multiply_to_h(self):
        for m in (23, 35, 974, 101, 102):
            table = ClassGroupTable(Modulus(m))
            prod = 1
            for _, o in table.structure:
                prod *= o
            assert prod == table.h

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

    def test_membership_in_E_is_conjugation_invariant(self):
        # the 2-torsion test cannot depend on the choice of lifting
        mod = Modulus(974)
        table = ClassGroupTable(mod)
        for p in primes_up_to(300):
            if kronecker(mod, p) != 1:
                continue
            f = table.class_of_prime(p)
            assert table.in_two_torsion(f) == table.in_two_torsion(f.inverse())


class TestQuotient:
    def test_pillars_974(self):
        q = quotient_setup(ClassGroupTable(Modulus(974)))
        assert [(pl.p, pl.order) for pl in q.pillars] == [(5, 6), (41, 3)]
        assert list(q.invariant_factors) == [6, 3]

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

    def test_coords_roundtrip(self):
        table = ClassGroupTable(Modulus(974))
        q = quotient_setup(table)
        rng = random.Random(1)
        for f in rng.sample(table.forms, 12):
            exps = q.coords(f)
            acc = table.identity
            for pl, e in zip(q.pillars, exps):
                acc = compose_forms(acc, table.power(pl.form, e))
            assert table.coset_rep(acc) == table.coset_rep(f)

    def test_class_mod_two_torsion(self):
        table = ClassGroupTable(Modulus(974))
        # p in L0 projects to the identity coset
        assert table.coset_rep(table.class_of_prime(937)) == table.coset_rep(table.identity)
        # the first pillar generates the C6 factor
        assert table.quotient_order(table.class_of_prime(5)) == 6
