from itertools import product
from operator import add, neg

from modpcheck.base_combinatorics import SubsetJ, all_subsets, vmap
from modpcheck.errors import ConfigInvalid, GenericityViolation, InadmissibleS, RangeViolation
from modpcheck.weights import (
    HCharacter,
    RhoParams,
    Translation,
    WeightB,
    aJ,
    alpha_char,
    char_of_lambda,
    char_of_weight,
    enumerate_admissible_S,
    is_admissible_S,
    jh_D0,
    jh_D0_component,
    rank_for_S,
    serre_weights_of_rhobar,
    sJ_tJ,
    validate_params,
)
import pytest


# helpers only these tests use


def indicator(J: SubsetJ) -> tuple:
    """e^J: 1 on J, 0 elsewhere."""
    return tuple(int(j in J) for j in range(J.f))


def translate_in_graph(params: RhoParams, J: SubsetJ, b: tuple) -> WeightB:
    """Weight reached from position b after the J-translation (see Translation)."""
    return WeightB(params, Translation(params, J).image(b))


def constituents_supported_in(params: RhoParams, S) -> frozenset:
    """Constituents of jh_D0 whose positive support {j : b_j >= 1} lies in S."""
    return frozenset(w for w in jh_D0(params)
                     if SubsetJ.of(params.f, [j for j, v in enumerate(w.b) if v >= 1]) in S)


def shift_generated_constituents(params: RhoParams, J: SubsetJ, i: tuple) -> frozenset:
    """Constituent region reached from (J, i); needs 0 <= i <= f - e^{J^sh}."""
    f = params.f
    Jnss, Jsh = J - params.Jrho, params.sh(J)
    for j in range(f):
        hi = f - (1 if j in Jsh else 0)
        if not 0 <= i[j] <= hi:
            raise RangeViolation(f"i_{j}={i[j]} outside [0, {hi}]")
    ranges = []
    for j in range(f):
        if j not in Jnss:
            ranges.append((1 if j in J else 0,))
        elif i[j] == 0:
            ranges.append((0, -1 if (j + 1) in J else 1))
        else:
            ranges.append((-1, 0, 1))
    return frozenset(WeightB(params, bs) for bs in product(*ranges))


def conjugate_char(chi: HCharacter) -> HCharacter:
    return HCharacter(chi.qm1, chi.exp2, chi.exp1)


def mul_alpha(params: RhoParams, chi: HCharacter, i: tuple) -> HCharacter:
    return chi * alpha_char(params, i)


def char_of_x_index(params: RhoParams, J: SubsetJ, i: tuple) -> HCharacter:
    """chi'_J alpha^{-i} with chi'_J = chi_J alpha^{e^{J^sh}}."""
    Jsh = params.sh(J)
    chi_p = mul_alpha(params, char_of_weight(params, J), indicator(Jsh))
    return mul_alpha(params, chi_p, vmap(neg, i))


P1 = RhoParams.make(11, 1, (4,), ())
P1R = RhoParams.make(11, 1, (5,), (0,))
P2 = RhoParams.make(13, 2, (5, 6), (0,))
P2F = RhoParams.make(13, 2, (5, 6), (0, 1))
P2E = RhoParams.make(13, 2, (6, 5), ())
P3 = RhoParams.make(17, 3, (7, 8, 7), (0, 2))

ALL_PARAMS = (P1, P1R, P2, P2F, P2E, P3)


def test_validate_params():
    validate_params(13, 2, (5, 6), SubsetJ.of(2, [0]))
    with pytest.raises(GenericityViolation) as ei:
        validate_params(13, 2, (4, 6), SubsetJ.of(2, []))
    assert ei.value.j == 0
    with pytest.raises(GenericityViolation):
        validate_params(13, 2, (5, 9), SubsetJ.of(2, []))  # 9 > p-3-2f = 6
    with pytest.raises(GenericityViolation):
        validate_params(11, 1, (3,), SubsetJ.of(1, []))  # f=1 extra bound
    with pytest.raises(GenericityViolation):
        validate_params(11, 2, (5, 5), SubsetJ.of(2, []))  # p < 4f+4
    with pytest.raises(ConfigInvalid):
        validate_params(12, 1, (4,), SubsetJ.of(1, []))
    with pytest.raises(ConfigInvalid):
        validate_params(13, 2, (5,), SubsetJ.of(2, []))


@pytest.mark.parametrize("p", [0, 1, -7, 4, 9, 121])
def test_validate_params_rejects_non_prime(p):
    with pytest.raises(ConfigInvalid, match=f"^p={p} is not prime$"):
        validate_params(p, 1, (4,), SubsetJ.of(1, []))


@pytest.mark.parametrize("p", [11, 13, 17, 23])
def test_validate_params_accepts_prime(p):
    # f=1, r=(4,) is generic for every p here, so nothing else can raise
    validate_params(p, 1, (4,), SubsetJ.of(1, []))


def test_sJ_tJ_frozen():
    s, t = sJ_tJ(P2F, SubsetJ.of(2, []))
    assert s == (5, 6) and t == (0, 0)
    s, t = sJ_tJ(P2F, SubsetJ.of(2, [0]))
    assert s == (6, 5) and t == (-1, 7)
    # full J splits on Jrho membership
    s, t = sJ_tJ(P2F, SubsetJ.full(2))
    assert s == (13 - 3 - 5, 13 - 3 - 6) and t == (6, 7)
    s, t = sJ_tJ(P2E, SubsetJ.full(2))
    assert s == (13 - 1 - 6, 13 - 1 - 5) and t == (6, 5)


def _rJ_oracle(params, J):
    # independent of the constants module on purpose
    return tuple((params.r[j] + 1 if (j + 1) in J else 0) - (1 if j in J else 0)
                 for j in range(params.f))


def test_t_is_rJ_plus_shear():
    for params in ALL_PARAMS:
        for J in params.subsets():
            Jsh = params.sh(J)
            _, t = sJ_tJ(params, J)
            assert t == vmap(add, _rJ_oracle(params, J), indicator(Jsh))


def test_translate_at_origin_hits_aJ():
    for params in ALL_PARAMS:
        for J in params.subsets():
            w = translate_in_graph(params, J, (0,) * params.f)
            assert w.b == aJ(params, J)


def test_translate_specializations():
    for params in ALL_PARAMS:
        for J in params.subsets():
            Jss, Jnss = J & params.Jrho, J - params.Jrho
            got = translate_in_graph(params, J, vmap(neg, indicator(Jnss)))
            assert got.b == aJ(params, Jss)
            Km = J.shift(-1) & params.Jrho  # (J-1)^ss
            got2 = translate_in_graph(params, J, vmap(neg, indicator(J ^ Km)))
            assert got2.b == aJ(params, Km)


def test_translate_general_target():
    # every sigma_{J'} is reachable from lambda_J with the case-split b
    for params in ALL_PARAMS:
        f = params.f
        for J in params.subsets():
            for Jp in params.subsets():
                b = []
                for j in range(f):
                    if j not in params.Jrho:
                        v = (1 if j in J else 0) + (
                            (1 if j in Jp else 0) * (-1 if (j + 1) not in (J ^ Jp) else 1)
                        )
                    else:
                        v = ((1 if j in J else 0) - (1 if j in Jp else 0)) * (
                            -1 if (j + 1) in J else 1
                        )
                    b.append(v)
                got = translate_in_graph(params, J, vmap(neg, b))
                assert got.b == aJ(params, Jp), (params, J, Jp)


def test_translate_range_violation():
    with pytest.raises(RangeViolation):
        translate_in_graph(P2, SubsetJ.of(2, []), (5, 0))
    with pytest.raises(RangeViolation):
        translate_in_graph(P2, SubsetJ.of(2, []), (0, -6))


def test_weightb_window():
    with pytest.raises(RangeViolation):
        WeightB(P1, (-5,))
    WeightB(P1, (-4,))


def test_weightb_rejects_position_of_other_f():
    params = RhoParams.make(17, 3, (7, 8, 7), (0,))
    for ent in ((0, 0), (0, 0, 0, 0)):
        with pytest.raises(RangeViolation, match="b indexed by f="):
            WeightB(params, ent)


def test_serre_weights_count():
    for params in ALL_PARAMS:
        W = serre_weights_of_rhobar(params)
        assert len(W) == 2 ** len(params.Jrho)
        for w in W:
            assert all(w.b[j] in ((0, 1) if j in params.Jrho else (0,)) for j in range(params.f))


def test_jh_counts_and_partition():
    for params in ALL_PARAMS:
        block = jh_D0(params)
        k = len(params.Jrho)
        assert len(block) == 3 ** (params.f - k) * 4**k
        seen = set()
        for J in params.subsets():
            if not J <= params.Jrho:
                with pytest.raises(RangeViolation):
                    jh_D0_component(params, J)
                continue
            comp = jh_D0_component(params, J)
            assert len(comp) == 3 ** (params.f - k) * 2**k
            assert not (seen & comp)
            seen |= comp
        assert seen == block


def test_component_contains_its_corner():
    for params in ALL_PARAMS:
        for J in params.subsets():
            if J <= params.Jrho:
                e_J = indicator(J)
                assert WeightB(params, e_J) in jh_D0_component(params, J)
                assert aJ(params, J) == e_J  # sigma_J = sigma_{e^J} inside Jrho


def test_region_examples():
    # all entries forced when J has no non-split part and i = 0
    got = shift_generated_constituents(P2F, SubsetJ.of(2, [0]), (0, 0))
    assert got == frozenset({WeightB(P2F, (1, 0))})
    # one free coordinate
    got = shift_generated_constituents(P2E, SubsetJ.of(2, [0]), (1, 0))
    assert got == frozenset(WeightB(P2E, (b0, 0)) for b0 in (-1, 0, 1))
    with pytest.raises(RangeViolation):
        shift_generated_constituents(P2E, SubsetJ.of(2, [0]), (3, 0))
    with pytest.raises(RangeViolation):
        shift_generated_constituents(P2E, SubsetJ.of(2, [0]), (-1, 0))


def test_region_row2_sign():
    # at i_j = 0 the free value leans away from the successor
    got = shift_generated_constituents(P2E, SubsetJ.of(2, [0]), (0, 0))
    assert got == frozenset(WeightB(P2E, (b0, 0)) for b0 in (0, 1))
    got = shift_generated_constituents(P2E, SubsetJ.full(2), (0, 0))
    assert got == frozenset(
        WeightB(P2E, (b0, b1)) for b0 in (0, -1) for b1 in (0, -1)
    )


def test_admissible_families():
    fams = enumerate_admissible_S(P1)
    as_masks = {frozenset(J.bits for J in S) for S in fams}
    assert as_masks == {frozenset(), frozenset({0}), frozenset({0, 1})}
    fams_full = enumerate_admissible_S(RhoParams.make(13, 2, (5, 6), (0, 1)))
    assert len(fams_full) == 8  # three shift-orbits, no closure constraint
    fams_e = enumerate_admissible_S(P2E)
    for S in fams_e:
        assert is_admissible_S(P2E, S)
        for J in S:
            assert J.shift(-1) in S


def test_rank_and_pi1():
    for params in (P1, P2, P2F):
        fams = sorted(enumerate_admissible_S(params), key=len)
        full = frozenset(all_subsets(params.f))
        assert full in fams
        assert rank_for_S(params, full) == 2**params.f
        for S in fams:
            assert rank_for_S(params, S) == len(S)
            pi1 = constituents_supported_in(params, S)
            ss_like = {w for w in pi1 if all(v in (0, 1) for v in w.b)}
            assert len(ss_like) == len(S)
        for S1 in fams:
            for S2 in fams:
                if S1 <= S2:
                    assert rank_for_S(params, S1) <= rank_for_S(params, S2)
    bad = frozenset({SubsetJ.of(2, [0])})
    with pytest.raises(InadmissibleS):
        rank_for_S(P2, bad)


def test_characters():
    chi = char_of_lambda(P2, (3, 4), (1, 2))
    assert conjugate_char(conjugate_char(chi)) == chi
    assert chi.exp1 == (3 + 4 * 13) % (13**2 - 1)
    # alpha_j^p = alpha_{j+1}
    for params in ALL_PARAMS:
        f = params.f
        for j in range(f):
            aj = alpha_char(params, indicator(SubsetJ.of(f, [j])))
            ajp = HCharacter(aj.qm1, aj.exp1 * params.p, aj.exp2 * params.p)
            assert ajp == alpha_char(params, indicator(SubsetJ.of(f, [j + 1])))
    # chi of the empty translate is lambda = (r, 0)
    for params in ALL_PARAMS:
        assert char_of_weight(params, SubsetJ.of(params.f, [])) == char_of_lambda(
            params, params.r, (0,) * params.f
        )
    # x-index character at i=0 is chi_J shifted by the shear
    for params in ALL_PARAMS:
        for J in params.subsets():
            Jsh = params.sh(J)
            assert char_of_x_index(params, J, (0,) * params.f) == mul_alpha(
                params, char_of_weight(params, J), indicator(Jsh)
            )
    assert HCharacter(10, 13, -2) == HCharacter(10, 3, 8)
