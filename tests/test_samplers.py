import pytest
from hypothesis import given
from hypothesis import strategies as st

from dsb.samplers import (
    ConfidenceThreshold,
    VanillaTop1,
    format_sampler,
    parse_sampler,
    select,
    select_threshold,
    select_top1,
)
from dsb.state import ConfidenceMap, NoCandidates

from reference import select_reference


def cmap(entries):
    """A ConfidenceMap from ``{pos: (token, confidence)}``."""
    positions = sorted(entries)
    return ConfidenceMap(positions, [entries[p][0] for p in positions],
                         [entries[p][1] for p in positions])


def commits(conf, chosen):
    """The (position, token) pairs that indices into ``conf`` select."""
    return list(zip(*conf.take(chosen)[:2]))


class TestTop1:
    def test_argmax(self):
        conf = cmap({10: (3, 0.4), 11: (7, 0.9)})
        assert commits(conf, select_top1(conf)) == [(11, 7)]

    def test_tie_goes_to_lowest_position(self):
        conf = cmap({10: (3, 0.7), 12: (7, 0.7)})
        assert commits(conf, select_top1(conf)) == [(10, 3)]

    def test_no_candidates(self):
        with pytest.raises(NoCandidates):
            select_top1(cmap({}))

    def test_only_eligible_considered(self):
        # The decode loop scores only the eligible window, so the map holds just those.
        conf = cmap({10: (3, 0.4)})
        assert commits(conf, select_top1(conf)) == [(10, 3)]


class TestThreshold:
    def test_all_above_tau(self):
        conf = cmap({10: (1, 0.95), 11: (2, 0.50), 12: (3, 0.92)})
        chosen, fallback = select_threshold(conf, 0.9)
        assert commits(conf, chosen) == [(10, 1), (12, 3)]
        assert fallback is False

    def test_fallback_to_argmax(self):
        conf = cmap({10: (1, 0.4), 11: (2, 0.6)})
        chosen, fallback = select_threshold(conf, 0.9)
        assert commits(conf, chosen) == [(11, 2)]
        assert fallback is True

    def test_tau_one_with_saturated_confidence(self):
        conf = cmap({10: (1, 1.0), 11: (2, 0.999)})
        chosen, fallback = select_threshold(conf, 1.0)
        assert commits(conf, chosen) == [(10, 1)]  # inclusive comparison keeps tau=1 meaningful
        assert fallback is False

    def test_tau_one_all_below(self):
        conf = cmap({10: (1, 0.99), 11: (2, 0.98)})
        chosen, fallback = select_threshold(conf, 1.0)
        assert commits(conf, chosen) == [(10, 1)]
        assert fallback is True

    def test_no_candidates(self):
        with pytest.raises(NoCandidates):
            select_threshold(cmap({}), 0.9)


@given(
    entries=st.dictionaries(
        st.integers(min_value=0, max_value=40),
        st.tuples(st.integers(min_value=0, max_value=9),
                  st.floats(min_value=0.0, max_value=1.0)),
        min_size=1,
        max_size=12,
    ),
    tau=st.floats(min_value=0.05, max_value=1.0),
)
def test_threshold_contains_top1_and_stays_eligible(entries, tau):
    conf = cmap(entries)
    eligible = set(entries)
    top = commits(conf, select_top1(conf))
    chosen, fallback = select_threshold(conf, tau)
    picked = commits(conf, chosen)
    assert len(picked) >= 1
    assert {p for p, _ in picked} <= eligible
    if entries[top[0][0]][1] >= tau:
        assert set(top) <= set(picked)
    # determinism on identical inputs
    again, again_fallback = select_threshold(conf, tau)
    assert (commits(conf, again), again_fallback) == (picked, fallback)
    assert commits(conf, select_top1(conf)) == top


# Few distinct confidences, so that ties are common; 1.0 and 0.9 sit on the taus.
CONFIDENCES = st.one_of(st.sampled_from([0.0, 0.3, 0.9, 1.0]), st.floats(min_value=0.0, max_value=1.0))


@given(
    entries=st.dictionaries(
        st.integers(min_value=0, max_value=300),
        st.tuples(st.integers(min_value=0, max_value=64), CONFIDENCES),
        max_size=16,
    ),
    kind=st.one_of(
        st.just(VanillaTop1()),
        st.sampled_from([1.0, 0.9]).map(ConfidenceThreshold),
        st.floats(min_value=1e-6, max_value=1.0).map(ConfidenceThreshold),
    ),
)
def test_vectorised_select_matches_scalar_reference(entries, kind):
    conf = cmap(entries)
    if not entries:
        with pytest.raises(NoCandidates):
            select(kind, conf)
        return
    chosen, fallback = select(kind, conf)
    assert len(chosen) == len(commits(conf, chosen))
    tau = kind.tau if isinstance(kind, ConfidenceThreshold) else None
    assert (commits(conf, chosen), fallback) == select_reference(entries, tau)


def test_select_dispatch():
    conf = cmap({10: (1, 0.95), 11: (2, 0.5)})
    for kind in (VanillaTop1(), ConfidenceThreshold(0.9)):
        chosen, fallback = select(kind, conf)
        assert (commits(conf, chosen), fallback) == ([(10, 1)], False)


class TestParse:
    def test_vanilla(self):
        assert parse_sampler("vanilla") == VanillaTop1()

    def test_threshold(self):
        assert parse_sampler("threshold:tau=0.9") == ConfidenceThreshold(0.9)

    def test_round_trip(self):
        assert format_sampler(parse_sampler("threshold:tau=0.9")) == "threshold:tau=0.9"
        assert format_sampler(VanillaTop1()) == "vanilla"

    def test_errors(self):
        for bad in ["threshold", "threshold:tau=0", "threshold:tau=1.5", "topk:k=2",
                    "vanilla:x=1"]:
            with pytest.raises(ValueError):
                parse_sampler(bad)
