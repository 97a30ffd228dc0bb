"""The spec grammar: every table round-trips, and every rejected spec names itself."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dsb.configstr import format_spec, parse_spec
from dsb.denoiser import TOY, DenoiserConfig
from dsb.kvcache import CACHES, DSBCache, DualCache, NoCache, parse_cache
from dsb.oracle import ORACLE, OracleConfig
from dsb.samplers import SAMPLERS, ConfidenceThreshold, VanillaTop1, parse_sampler
from dsb.schedulers import SCHEDULERS, NaiveBlock, SlidingBlock, parse_scheduler

SIZE = st.integers(min_value=1, max_value=10**12)


@st.composite
def sliding(draw):
    init = draw(SIZE)
    return SlidingBlock(init, draw(st.none() | st.integers(min_value=init, max_value=10**12)))


@st.composite
def toy_config(draw):
    heads = draw(st.integers(min_value=1, max_value=64))
    return DenoiserConfig(
        vocab_size=draw(st.integers(min_value=2, max_value=10**6)),
        width=heads * draw(st.integers(min_value=1, max_value=64)),
        heads=heads,
        depth=draw(SIZE),
        max_len=draw(SIZE),
        seed=draw(st.integers(min_value=0, max_value=2**64)),
    )


PATHS = st.text(st.characters(blacklist_characters=",", blacklist_categories=("Cs",)),
                min_size=1).filter(lambda p: p == p.strip())

KINDS = st.one_of(
    st.tuples(st.just(SCHEDULERS), st.builds(NaiveBlock, SIZE) | sliding()),
    st.tuples(st.just(SAMPLERS), st.just(VanillaTop1()) | st.builds(
        ConfidenceThreshold, st.floats(min_value=0.0, max_value=1.0, exclude_min=True))),
    st.tuples(st.just(CACHES), st.sampled_from([NoCache(), DualCache()]) | st.builds(
        DSBCache, SIZE, st.integers(min_value=0, max_value=10**12))),
    st.tuples(st.just(TOY), toy_config()),
    st.tuples(st.just(ORACLE), st.builds(OracleConfig, PATHS, st.integers(-10, 10**6))),
)


@settings(max_examples=200, deadline=None)
@given(table_and_kind=KINDS)
def test_format_then_parse_returns_the_kind(table_and_kind):
    table, kind = table_and_kind
    assert parse_spec(format_spec(kind, table), table, "kind") == kind


def test_the_writer_spells_every_key_exactly():
    """Each spelling, which parses back to its kind (tau 1.0 and 0.9000001 too).  The
    kinds are built here, not at import, so that collection runs no kind's checks."""
    for kind, table, spec in [
        (SlidingBlock(32, None), SCHEDULERS, "dsb:init=32,max=unbounded"),
        (ConfidenceThreshold(1.0), SAMPLERS, "threshold:tau=1.0"),
        (ConfidenceThreshold(0.9000001), SAMPLERS, "threshold:tau=0.9000001"),
        (DSBCache(24), CACHES, "dsbcache:pmin=24,suffix=0"),
        (DenoiserConfig(seed=42), TOY, "toy:seed=42,v=65,d=64,h=4,layers=4,maxlen=512"),
        (OracleConfig("p.txt", 65), ORACLE, "oracle:profile=p.txt,v=65"),
    ]:
        assert format_spec(kind, table) == spec and parse_spec(spec, table, "kind") == kind, spec


def test_dsb_max_defaults_to_init():
    assert parse_scheduler("dsb:init=16") == SlidingBlock(16, 16)


NUMBERS = st.one_of(st.integers(-2, 40), st.integers(-2, 10**20), st.floats()).map(str)
JUNK = st.sampled_from(["unbounded", "x", "", "1e999", "0x10", "1_0"]) | st.text(max_size=4)


@st.composite
def specs(draw, table):
    """Mostly near misses of ``table``'s grammar: its names and keys, with bad values."""
    odd = st.integers(0, 9).map(lambda i: i == 0)  # one draw in ten leaves the grammar
    name = draw(st.text(max_size=6)) if draw(odd) else draw(st.sampled_from(sorted(table)))
    keys = sorted(table[name][1]) if name in table else []
    chosen = draw(st.lists(st.sampled_from(keys), unique=True)) if keys else []
    if draw(odd):
        chosen.append(draw(st.text(max_size=3) | st.sampled_from(keys or ["x"])))
    params = []
    for key in chosen:
        sep = draw(st.sampled_from(["", "=="])) if draw(odd) else "="
        params.append(f"{key}{sep}{draw(JUNK) if draw(odd) else draw(NUMBERS)}")
    return draw(st.text()) if draw(odd) else f"{name}:{','.join(params)}"


def parse_toy(spec):
    return parse_spec(spec, TOY, "denoiser")


PARSERS = [(parse_scheduler, SCHEDULERS), (parse_sampler, SAMPLERS), (parse_cache, CACHES),
           (parse_toy, TOY)]


@settings(max_examples=200, deadline=None)
@given(case=st.sampled_from(PARSERS).flatmap(lambda p: st.tuples(st.just(p[0]), specs(p[1]))))
@example((parse_scheduler, "naive:B=0"))
@example((parse_scheduler, "dsb:init=32,max=x"))
@example((parse_scheduler, "dsb:init=8,max=4"))
@example((parse_sampler, "threshold:tau=nan"))
@example((parse_cache, " "))
@example((parse_toy, "toy:d=6,h=4"))
def test_every_rejected_spec_is_a_value_error_naming_the_spec(case):
    parse, spec = case
    try:
        parse(spec)
    except ValueError as exc:
        assert repr(spec) in str(exc)


@pytest.mark.parametrize("spec, message", [
    ("naive:B=0", "block size must be >= 1, got 0 in 'naive:B=0'"),
    ("dsb:init=32,max=x", "parameter 'max' in 'dsb:init=32,max=x' is not an integer or 'unbounded'"),
    ("dsb:init=32,max=8", "max size 8 smaller than init size 32 in 'dsb:init=32,max=8'"),
    ("threshold:tau=x", "parameter 'tau' in 'threshold:tau=x' is not a number"),
    ("threshold:tau=0", "tau must lie in (0, 1], got 0.0 in 'threshold:tau=0'"),
])
def test_scheduler_and_sampler_errors_name_the_spec(spec, message):
    parse = parse_scheduler if spec.startswith(("naive", "dsb")) else parse_sampler
    with pytest.raises(ValueError) as info:
        parse(spec)
    assert str(info.value) == message
