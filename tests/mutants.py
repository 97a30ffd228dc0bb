"""The mutant table: small faults in ``src/dsb`` and the tests that must catch them.

Each entry names a file under ``src/dsb``, an exact text that occurs once in
it, the text that replaces it, a label, and the node ids of the tests that
kill it.  ``scripts/mutants.py`` applies one entry at a time to a copy of
``src/`` and runs its killers there; ``tests/test_mutants.py`` keeps the table
in step with the code and the suite.

A test is deleted only when every mutant here keeps a killer without it.
"""

from typing import NamedTuple, Tuple


class Mutant(NamedTuple):
    label: str
    path: str  # relative to src/dsb
    old: str
    new: str
    killers: Tuple[str, ...]


KEPT_MAPS = ("tests/test_oracle.py::test_kept_maps_equal_the_reference_at_their_scoring_step",)

MUTANTS = (
    Mutant(
        "map draws at the state's current step",
        "oracle.py",
        "partial(self._draw, state.step & _MASK64, lp)",
        "(lambda p, c: self._draw(state.step & _MASK64, lp, p, c))",
        KEPT_MAPS,
    ),
    Mutant(
        "scored positions left unsorted",
        "oracle.py",
        "        pos.sort()\n",
        "",
        KEPT_MAPS,
    ),
    Mutant(
        "maps share one confidence buffer",
        "oracle.py",
        "        c = self._flat[k]\n",
        "        c = self.__dict__.setdefault('_cbuf', np.empty(len(self._lo)))[:k.size];"
        " np.take(self._flat, k, out=c)\n",
        KEPT_MAPS,
    ),
    Mutant(
        "decoy skips the truth but not the mask id",
        "oracle.py",
        "                d += d >= min(t, mask)\n"
        "                out.append(d + (d >= max(t, mask)))\n",
        "                out.append(d + (d >= t))\n",
        KEPT_MAPS,
    ),
    Mutant(
        "step hashed as 32 bits",
        "oracle.py",
        "state.step & _MASK64, lp)",
        "state.step & 0xFFFFFFFF, lp)",
        KEPT_MAPS,
    ),
    Mutant(
        "context window one short on the left",
        "oracle.py",
        "np.maximum(0, i - radius)",
        "np.maximum(0, i - radius + 1)",
        KEPT_MAPS,
    ),
    Mutant(
        "negative seed hashed by its magnitude",
        "oracle.py",
        "_chain(0, profile.seed & _MASK64)",
        "_chain(0, abs(profile.seed) & _MASK64)",
        KEPT_MAPS,
    ),
    Mutant(
        "take draws the leading positions",
        "state.py",
        "self._tokens(positions, confidences)",
        "self._tokens(self.positions[:len(positions)].tolist(), confidences)",
        KEPT_MAPS,
    ),
    Mutant(
        "commit drops its flag store",
        "state.py",
        "        self._decoded[position] = 1\n",
        "",
        ("tests/test_state.py::test_decoded_flags_agree_with_the_tokens_after_any_commits",),
    ),
    Mutant(
        "prefix window without the slide distance",
        "kvcache.py",
        "return max(prefix_min, start_now - start_prev)",
        "return prefix_min",
        ("tests/test_kvcache.py::TestPrefixWindowLen::test_matches_max_formula",),
    ),
    Mutant(
        "dual never resyncs",
        "kvcache.py",
        "if window.start - refresh.block_start >= window.init_size:",
        "if False:",
        ("tests/test_kvcache.py::TestRecomputeSet::test_dual_resync_on_block_completion",),
    ),
    Mutant(
        "DSB refresh one commit late",
        "kvcache.py",
        "if tokens_since_refresh >= window.init_size:",
        "if tokens_since_refresh > window.init_size:",
        ("tests/test_kvcache.py::TestRecomputeSet::test_dsbcache_refresh_when_counter_crosses",),
    ),
    Mutant(
        "strict > tau",
        "samplers.py",
        "(conf.confidences >= tau)",
        "(conf.confidences > tau)",
        ("tests/test_samplers.py::test_vectorised_select_matches_scalar_reference",),
    ),
    Mutant(
        "sliding cap ignored",
        "schedulers.py",
        "end = min(end, start + window.max_size)",
        "end = end",
        ("tests/test_schedulers.py::test_sliding_invariants_over_random_traces",),
    ),
    Mutant(
        "naive block moves on one slot early",
        "schedulers.py",
        "< window.width:",
        "< window.width - 1:",
        ("tests/test_acceptance.py::test_criterion_3_vanilla_step_identity",),
    ),
)
