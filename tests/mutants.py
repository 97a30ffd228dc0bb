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
CACHE_DECISIONS = ("tests/test_kvcache.py::test_coverage_and_validity_discipline_over_randomized_traces",)
NAIVE_ADVANCE = ("tests/test_schedulers.py::test_naive_invariants_over_random_traces",)
SLIDING_ADVANCE = ("tests/test_schedulers.py::test_sliding_invariants_over_random_traces",)
REFERENCE_DECODE = ("tests/test_engine.py::test_oracle_decode_matches_scalar_reference_oracle",)
REFERENCE_FORWARD = ("tests/test_denoiser.py::test_forward_matches_loop_reference",)
REJECTION = ("tests/test_cli.py::test_every_rejected_invocation_exits_2_before_any_output",)
RULE_CACHE = CACHE_DECISIONS + ("tests/test_rule.py::test_rule_cached_commits_match_the_golden_digests",)

# ``--all`` runs the operator mutants (scripts/mutants.py's ``generate``) of every module after the
# table.  A generated mutant has no named killer; the tests that call its function must kill it,
# unless it is listed here: by label, why no run can tell it from the code.
EQUIVALENT = {
    "oracle:OracleDenoiser.__init__:int:8": "count.max() + 2 adds a table column that is never read",
    "oracle:OracleDenoiser._draw:<:1": "a 64-bit hash ratio equals a confidence with probability about 0",
    "denoiser:_score_bound:int:4": "numpy reads a reshape size of -2 as 'infer', just as it reads -1",
    "denoiser:_score_bound:int:9": "numpy reads a reshape size of -2 as 'infer', just as it reads -1",
    "denoiser:TinyDenoiser._attend:>:1": "differs only when the bound equals 64 exactly; a shift moves only rounding",
    "denoiser:TinyDenoiser._attend:>:2": "differs only when a score equals 64 exactly; a shift moves only rounding",
    "denoiser:TinyDenoiser._attend:<:1": "differs only when a score equals -64 exactly; a shift moves only rounding",
}

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
        CACHE_DECISIONS,
    ),
    Mutant(
        "dual never resyncs",
        "kvcache.py",
        "if window.start - refresh.block_start >= window.init_size:",
        "if False:",
        RULE_CACHE,
    ),
    Mutant(
        "DSB refresh one commit late",
        "kvcache.py",
        "if tokens_since_refresh >= window.init_size:",
        "if tokens_since_refresh > window.init_size:",
        CACHE_DECISIONS,
    ),
    Mutant(
        "dual anchored at the previous step",
        "kvcache.py",
        "refresh.block_start >= window.init_size:",
        "records[-1].block_start >= window.init_size:",
        CACHE_DECISIONS,
    ),
    Mutant(
        "prefix window slid from the last refresh",
        "kvcache.py",
        "window.start, records[-1].block_start)",
        "window.start, refresh.block_start)",
        RULE_CACHE,
    ),
    Mutant(
        "suffix window past the sequence end",
        "kvcache.py",
        "hi = min(seq_len, window.end + policy.suffix_len)",
        "hi = window.end + policy.suffix_len",
        CACHE_DECISIONS,
    ),
    Mutant(
        "prefix window reflected at zero",
        "kvcache.py",
        "lo = max(0, window.start - pw)",
        "lo = abs(window.start - pw)",
        CACHE_DECISIONS,
    ),
    Mutant(
        "refresh step's own commits counted",
        "kvcache.py",
        "        if refresh.cache_event == EVENT_REFRESH:\n"
        "            break\n"
        "        tokens_since_refresh += len(refresh.positions)\n",
        "        tokens_since_refresh += len(refresh.positions)\n"
        "        if refresh.cache_event == EVENT_REFRESH:\n"
        "            break\n",
        CACHE_DECISIONS,
    ),
    Mutant(
        "nocache steps tagged as refreshes",
        "kvcache.py",
        "return range(seq_len), EVENT_NONE",
        "return range(seq_len), EVENT_REFRESH",
        CACHE_DECISIONS,
    ),
    Mutant(
        "dual recomputes one row past the block",
        "kvcache.py",
        "return range(window.start, window.end), EVENT_PARTIAL",
        "return range(window.start, min(seq_len, window.end + 1)), EVENT_PARTIAL",
        RULE_CACHE,
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
        SLIDING_ADVANCE,
    ),
    Mutant(
        "naive's last block runs past the response",
        "schedulers.py",
        "min(window.end + window.init_size, state.seq_len)",
        "window.end + window.init_size",
        NAIVE_ADVANCE,
    ),
    Mutant(
        "sliding right edge not clamped to the response",
        "schedulers.py",
        "max(start, min(end, state.seq_len))",
        "max(start, end)",
        SLIDING_ADVANCE,
    ),
    Mutant(
        "naive block moves on one slot early",
        "schedulers.py",
        "< window.width:",
        "< window.width - 1:",
        ("tests/test_acceptance.py::test_criterion_3_vanilla_step_identity",),
    ),
    Mutant(
        "fallback never recorded",
        "engine.py",
        "fallback=fallback,",
        "fallback=False,",
        REFERENCE_DECODE,
    ),
    Mutant(
        "step counter never advances",
        "engine.py",
        "        state.step += 1\n",
        "",
        REFERENCE_DECODE,
    ),
    Mutant(
        "eligible set ignores the window",
        "engine.py",
        "eligible = eligible_set(window, state)",
        "eligible = state.masked_positions(state.prompt_len, seq_len)",
        REFERENCE_DECODE,
    ),
    Mutant(
        "score scale 1/dh",
        "denoiser.py",
        "np.sqrt(config.width // config.heads)",
        "(config.width // config.heads)",
        REFERENCE_FORWARD,
    ),
    Mutant(
        "shift never taken",
        "denoiser.py",
        "weights -= weights.max(axis=-1, keepdims=True)",
        "pass",
        REFERENCE_FORWARD,
    ),
    Mutant(
        "scored rows cut at the first layer",
        "denoiser.py",
        "i == self.config.depth - 1:",
        "i == 0:",
        REFERENCE_FORWARD,
    ),
    Mutant(
        "attention reads only the recomputed rows",
        "denoiser.py",
        "cache.keys[i], cache.values[i]",
        "np.ascontiguousarray(cache.keys[i][..., rows]), np.ascontiguousarray(cache.values[i][:, rows])",
        REFERENCE_FORWARD,
    ),
    Mutant(
        "score taken as row offsets",
        "denoiser.py",
        "np.asarray(score, dtype=np.int64) - recompute.start",
        "np.asarray(score, dtype=np.int64)",
        REFERENCE_FORWARD,
    ),
    Mutant(
        "row sums over the query block only",
        "denoiser.py",
        "np.matmul(weights, self._ones[:nk])",
        "np.matmul(weights[..., :nq], self._ones[:nq])",
        REFERENCE_FORWARD,
    ),
    Mutant(
        "K/V written after the layer attends",
        "denoiser.py",
        "            cache.keys[i][..., rows] = qkv[:, d:2 * d].reshape(split).transpose(1, 2, 0)\n"
        "            cache.values[i][:, rows] = qkv[:, 2 * d:].reshape(split).transpose(1, 0, 2)\n"
        "            q = qkv[:, :d]\n"
        "            if keep is not None and i == self.config.depth - 1:\n"
        "                x, q = x[keep], q[keep]\n"
        "            x += self._attend(q, cache.keys[i], cache.values[i], cache.scores, self._bounds[i]) @ w.wo\n",
        "            q = qkv[:, :d]\n"
        "            if keep is not None and i == self.config.depth - 1:\n"
        "                x, q = x[keep], q[keep]\n"
        "            x += self._attend(q, cache.keys[i], cache.values[i], cache.scores, self._bounds[i]) @ w.wo\n"
        "            cache.keys[i][..., rows] = qkv[:, d:2 * d].reshape(split).transpose(1, 2, 0)\n"
        "            cache.values[i][:, rows] = qkv[:, 2 * d:].reshape(split).transpose(1, 0, 2)\n",
        REFERENCE_FORWARD,
    ),
    Mutant(
        "score bound 100x too small",
        "denoiser.py",
        "1.01 *",
        "0.0101 *",
        ("tests/test_denoiser.py::test_every_score_lies_within_its_layers_bound",),
    ),
    Mutant(
        "mask id left in the softmax",
        "denoiser.py",
        "    scores[:, vocab.mask_id] = -np.inf\n",
        "",
        ("tests/test_denoiser.py::TestConfidences::test_mask_never_wins",),
    ),
    Mutant(
        "prompt may hold the mask id",
        "state.py",
        " | (prompt_arr == vocab.mask_id)]",
        "]",
        REJECTION,
    ),
    Mutant(
        "grid file keeps the last of a duplicated key",
        "engine.py",
        "        if key in raw:\n"
        "            raise ValueError(f\"{path}:{lineno}: duplicate key {key!r}\")\n",
        "",
        REJECTION,
    ),
    Mutant(
        "eos id equal to the vocabulary size accepted",
        "engine.py",
        "0 <= eos_id < vocab.size",
        "0 <= eos_id <= vocab.size",
        REJECTION,
    ),
    Mutant(
        "undecodable byte reported without its line",
        "configstr.py",
        "raise ValueError(f\"{path}:{lineno}: {exc}\") from None",
        "raise ValueError(f\"{path}: {exc}\") from None",
        REJECTION,
    ),
    Mutant(
        "a spec's value error leaves out the spec",
        "configstr.py",
        "        raise ValueError(f\"{exc} in {spec!r}\") from None\n",
        "        raise ValueError(str(exc)) from None\n",
        REJECTION,
    ),
    Mutant(
        "a rejection exits 1",
        "cli.py",
        "        print(f\"error: {exc}\", file=sys.stderr)\n        return 2\n",
        "        print(f\"error: {exc}\", file=sys.stderr)\n        return 1\n",
        REJECTION,
    ),
    Mutant(
        "decode truncates its outputs before check_config",
        "cli.py",
        "    engine.check_config(denoiser, kinds[2], len(prompt), args.gen_len, args.eos_id)\n"
        "    _empty_outputs(args.csv, args.trace)  # a bad config or unwritable output fails before the decode\n",
        "    _empty_outputs(args.csv, args.trace)\n"
        "    engine.check_config(denoiser, kinds[2], len(prompt), args.gen_len, args.eos_id)\n",
        REJECTION,
    ),
    Mutant(
        "an unwritable output leaves the outputs created before it",
        "cli.py",
        "        for path in absent:\n"
        "            if os.path.lexists(path):\n"
        "                os.remove(path)\n",
        "",
        REJECTION,
    ),
    Mutant(
        "an output may name an input file",
        "cli.py",
        "    named = list(inputs)\n",
        "    named = []\n",
        REJECTION,
    ),
    Mutant(
        "two outputs may name one file",
        "cli.py",
        "            named.append((flag, path))\n",
        "",
        REJECTION,
    ),
    Mutant(
        "a prompt token error leaves out its line",
        "cli.py",
        "f\"{path}:{lineno}: token id\"",
        "f\"{path}: token id\"",
        REJECTION,
    ),
    Mutant(
        "a toy construction error leaves out the spec",
        "engine.py",
        "        except MemoryError as exc:\n            raise ValueError(f\"{exc} in {spec!r}\") from None\n",
        "        except MemoryError as exc:\n            raise ValueError(str(exc)) from None\n",
        REJECTION,
    ),
    Mutant(
        "a grid checks only its first denoiser",
        "engine.py",
        "for d in self.denoisers:",
        "for d in self.denoisers[:1]:",
        REJECTION,
    ),
    Mutant(
        "a grid checks each denoiser with its first cache only",
        "engine.py",
        "zip(self.caches, self.kinds[2])",
        "zip(self.caches[:1], self.kinds[2])",
        REJECTION,
    ),
    Mutant(
        "a missing grid key named without the file",
        "engine.py",
        "raise ValueError(f\"{path}: missing required key {exc.args[0]!r}\")",
        "raise ValueError(f\"missing required key {exc.args[0]!r}\")",
        REJECTION,
    ),
    Mutant(
        "a grid number error leaves out its key",
        "engine.py",
        "parse_number(kind, text, f\"{path}: key {key!r}\")",
        "parse_number(kind, text, path)",
        REJECTION,
    ),
    Mutant(
        "a profile header error leaves out the path",
        "oracle.py",
        "raise ValueError(f\"{path}:{lineno}: {problem} header key {key!r}\")",
        "raise ValueError(f\"{problem} header key {key!r}\")",
        REJECTION,
    ),
    Mutant(
        "a profile header value named without its line",
        "oracle.py",
        "header[key] = value.strip(), f\"{path}:{lineno}: key {key!r}\"",
        "header[key] = value.strip(), f\"{path}: key {key!r}\"",
        REJECTION,
    ),
    Mutant(
        "a profile value error leaves out the path",
        "oracle.py",
        "        raise ValueError(f\"{path}: {exc}\") from None\n",
        "        raise ValueError(str(exc)) from None\n",
        REJECTION,
    ),
    Mutant(
        "a trace record's types, event and lengths go unchecked",
        "state.py",
        "        rec = cls(**json.loads(line))\n"
        "        for name, hint in _FIELD_TYPES.items():\n",
        "        return cls(**json.loads(line))\n"
        "        for name, hint in _FIELD_TYPES.items():\n",
        ("tests/test_engine.py::TestTraceIO::test_bad_line_reports_its_location",),
    ),
    Mutant(
        "a trace record's commits go unchecked",
        "state.py",
        "        if not rec.positions:\n",
        "        return rec\n        if not rec.positions:\n",
        ("tests/test_engine.py::TestTraceIO::test_bad_line_reports_its_location",),
    ),
    Mutant(
        "a commit at the premature floor counts as premature",
        "metrics.py",
        "if conf < floor)",
        "if conf <= floor)",
        ("tests/test_metrics.py::TestPrematureCommitCount::test_a_commit_at_the_floor_is_not_premature",),
    ),
    Mutant(
        "recompute fraction left per step, not per row",
        "metrics.py",
        "recompute_total / (steps * seq_len)",
        "recompute_total / steps",
        ("tests/test_metrics.py::TestRunStats::test_counts",),
    ),
    Mutant(
        "summary std over seeds with one degree of freedom",
        "metrics.py",
        "float(np.std(values))",
        "float(np.std(values, ddof=1))",
        ("tests/test_metrics.py::TestSummarize::test_groups_by_configuration",),
    ),
    Mutant(
        "exact match read without the prompt offset",
        "metrics.py",
        "truth[pos - prompt_len]",
        "truth[pos]",
        ("tests/test_oracle.py::test_exact_match_rate_counts_truth_hits",),
    ),
)
