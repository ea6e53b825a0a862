import hashlib
import random
from fractions import Fraction

import pytest

from ndcheck import (
    AdversaryModel,
    DY_GT,
    DY_T,
    RELAY,
    check_adversary_feasible,
    check_pt_feasible,
    check_setting_feasible,
)
from ndcheck.generators import (
    make_ordering_corpus,
    random_params,
    random_setting,
    random_trace,
    random_tl_views,
)
from ndcheck.scenario import dump_trace

F = Fraction
HORIZON = F(40)


def test_generated_traces_pass_all_checkers():
    rng = random.Random(424242)
    for _ in range(30):
        params = random_params(rng, delta_at_least_threshold=True, equal_speeds=False)
        setting = random_setting(rng, HORIZON)
        trace = random_trace(rng, setting, params, "pt", DY_T, HORIZON)
        assert check_setting_feasible(trace, setting, params).ok
        assert check_pt_feasible(trace, setting, params).ok
        model = AdversaryModel(DY_T, params.delta_relay)
        assert check_adversary_feasible(trace, setting, params, model).ok


def test_generation_is_deterministic():
    def build(seed):
        rng = random.Random(seed)
        params = random_params(rng, delta_at_least_threshold=False, equal_speeds=True)
        setting = random_setting(rng, HORIZON)
        return random_trace(rng, setting, params, "pgt", RELAY, HORIZON)

    assert build(99) == build(99)
    assert build(99) != build(100)


def test_unknown_adversary_kind_raises(unit_params):
    """An unknown model is refused as AdversaryModel refuses it, not drawn
    as some other model's trace."""
    rng = random.Random(5)
    setting = random_setting(rng, HORIZON)
    with pytest.raises(ValueError, match="unknown adversary model 'bogus'"):
        random_trace(rng, setting, unit_params, "pt", "bogus", HORIZON)
    with pytest.raises(ValueError, match="unknown adversary model 'bogus'"):
        AdversaryModel("bogus", unit_params.delta_relay)


def test_placements_always_exactly_measurable():
    rng = random.Random(7)
    for _ in range(40):
        setting = random_setting(rng, HORIZON)
        from ndcheck import dist

        for i, a in enumerate(setting.nodes):
            for b in setting.nodes[i + 1:]:
                dist(setting, a, b)  # must not raise IrrationalDistance


def test_ordering_corpus_shape(unit_params):
    corpus = make_ordering_corpus(seed=3, size=10, params=unit_params)
    assert len(corpus) == 10
    tags = [tag for _, _, tag in corpus]
    assert tags[-1] == "authored"
    assert {"relay", "relay-bcast", "relay-local"} <= set(tags)
    for trace, setting, _ in corpus:
        assert check_setting_feasible(trace, setting, unit_params).ok


def test_random_views_are_varied(unit_params):
    views = random_tl_views(seed=5, count=50, params=unit_params)
    assert len(views) == 50
    assert any(view.events for view in views)
    assert len({view.owner_loc for view in views}) > 5


# (seed, protocol, adversary kind): the soundness-corpus streams of benchmark
# seed 7 (random.Random(2 * 7 + s)) and the seeds of acceptance criteria 3 and 4
_PINNED_STREAMS = (
    (14, "pt", DY_T),
    (15, "pgt", DY_GT),
    (20080318, "pt", DY_T),
    (20080319, "pgt", DY_GT),
)
_PINNED_DIGEST = "da6248638b8cd87896e8e91a998eac4e167b0d4f63b8c813fafe4a085ae96c78"


def test_generated_corpora_are_pinned():
    """Every seed keeps its draws: 200 settings and traces from each stream
    hash to the digest the Fraction-drawing generators gave."""
    digest = hashlib.sha256()
    for seed, protocol, kind in _PINNED_STREAMS:
        rng = random.Random(seed)
        for _ in range(200):
            params = random_params(rng, protocol == "pt", protocol == "pgt")
            setting = random_setting(rng, HORIZON)
            trace = random_trace(rng, setting, params, protocol, kind, HORIZON)
            drawn = (params, setting.nodes, setting.loc, setting.node_type, setting.link_schedule)
            digest.update(repr(drawn).encode())
            digest.update(dump_trace(trace).encode())
    assert digest.hexdigest() == _PINNED_DIGEST
