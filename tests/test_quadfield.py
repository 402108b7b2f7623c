import pytest

from aptgroup.primes import primes_up_to
from aptgroup.quadfield import (
    InvalidModulusError,
    Modulus,
    SplitKind,
    ideal_valuation,
    kronecker,
    lift_root,
    splitting_type,
    sqrt_mod,
)


class TestModulus:
    @pytest.mark.parametrize("m,delta,disc", [(23, 0, -23), (35, 0, -35), (974, 1, -3896), (7, 0, -7), (5, 1, -20), (6, 1, -24)])
    def test_constants(self, m, delta, disc):
        mod = Modulus(m)
        assert (mod.delta, mod.disc) == (delta, disc)

    @pytest.mark.parametrize("m", [12, 18, 50, 975 * 975])
    def test_rejects_non_squarefree(self, m):
        with pytest.raises(InvalidModulusError):
            Modulus(m)

    @pytest.mark.parametrize("m", [0, 1, 2, 3, -7])
    def test_rejects_small(self, m):
        with pytest.raises(InvalidModulusError):
            Modulus(m)

    def test_disc_residue(self):
        for m in range(5, 200):
            try:
                mod = Modulus(m)
            except InvalidModulusError:
                continue
            assert mod.disc % 4 in (0, 1)


class TestKronecker:
    @pytest.mark.parametrize(
        "m,p,want",
        [(35, 71, 1), (35, 5, 0), (23, 2, 1), (23, 5, -1), (974, 2, 0), (23, 23, 0)],
    )
    def test_values(self, m, p, want):
        assert kronecker(Modulus(m), p) == want

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            kronecker(Modulus(23), 15)

    def test_euler_criterion(self):
        mod = Modulus(29)
        for p in primes_up_to(200):
            if p == 2 or 29 % p == 0:
                continue
            euler = pow(-29 % p, (p - 1) // 2, p)
            assert kronecker(mod, p) == (1 if euler == 1 else -1)


class TestSplitting:
    @pytest.mark.parametrize(
        "m,p,kind,root",
        [
            (974, 41, SplitKind.SPLIT, 16),
            (974, 5, SplitKind.SPLIT, 1),
            (35, 5, SplitKind.RAMIFIED, 0),
            (23, 5, SplitKind.INERT, None),
            (23, 2, SplitKind.SPLIT, 1),
            (974, 2, SplitKind.RAMIFIED, 0),
            (29, 2, SplitKind.RAMIFIED, 1),
        ],
    )
    def test_examples(self, m, p, kind, root):
        info = splitting_type(Modulus(m), p)
        assert (info.kind, info.root) == (kind, root)

    def test_trichotomy_matches_kronecker(self):
        mod = Modulus(974)
        for p in primes_up_to(100):
            info = splitting_type(mod, p)
            k = kronecker(mod, p)
            want = {1: SplitKind.SPLIT, 0: SplitKind.RAMIFIED, -1: SplitKind.INERT}[k]
            assert info.kind is want

    def test_root_canonical_half(self):
        mod = Modulus(23)
        for p in primes_up_to(500):
            if p != 2 and kronecker(mod, p) == 1:
                r = splitting_type(mod, p).root
                assert 0 < r <= (p - 1) // 2
                assert (r * r + 23) % p == 0


class TestSqrtMod:
    @pytest.mark.parametrize("a,p,want", [(-974 % 41, 41, 16), (0, 7, 0), (-23 % 3, 3, 1)])
    def test_examples(self, a, p, want):
        assert sqrt_mod(a, p) == want

    def test_non_residue(self):
        assert sqrt_mod(2, 5) is None

    @pytest.mark.parametrize("p", [3, 5, 13, 17, 97, 101, 193, 257])
    def test_against_brute_force(self, p):
        for a in range(p):
            roots = [r for r in range(p) if r * r % p == a]
            got = sqrt_mod(a, p)
            if not roots:
                assert got is None
            else:
                assert got in roots
                assert got == 0 or got <= (p - 1) // 2


class TestValuations:
    def test_lift_root(self):
        mod = Modulus(974)
        r = lift_root(mod, 5, 1, 6)
        assert (r * r + 974) % 5**6 == 0 and r % 5 == 1

    def test_valuation_of_known_square(self):
        # <615, 16 + sqrt(-974)>^2 = <359 - 16 sqrt(-974)>
        mod = Modulus(974)
        for p in (3, 5, 41):
            info = splitting_type(mod, p)
            assert ideal_valuation(mod, 359, -16, info, conj=False) == 2
            assert ideal_valuation(mod, 359, 16, info, conj=True) == 2
            assert ideal_valuation(mod, 359, 16, info, conj=False) == 0

    def test_valuation_splits_norm(self):
        mod = Modulus(23)
        info = splitting_type(mod, 59)
        # 13^2 + 23*12^2 = 59^2: full valuation on one side
        v_plain = ideal_valuation(mod, 13, 12, info)
        v_conj = ideal_valuation(mod, 13, 12, info, conj=True)
        assert sorted((v_plain, v_conj)) == [0, 2]

    def test_rational_prime_counts_once_per_side(self):
        mod = Modulus(23)
        info = splitting_type(mod, 3)
        # 3 * (1 + sqrt(-23)) has one extra valuation on each side
        base_plain = ideal_valuation(mod, 1, 1, info)
        base_conj = ideal_valuation(mod, 1, 1, info, conj=True)
        assert ideal_valuation(mod, 3, 3, info) == base_plain + 1
        assert ideal_valuation(mod, 3, 3, info, conj=True) == base_conj + 1
