import csv
import os
import re
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dsb.engine
from dsb.cli import _read_prompt, main
from dsb.engine import GridSpec, make_prompt, parse_grid_file, read_trace, run_grid
from dsb.metrics import ROW_COLUMNS, write_csv
from dsb.oracle import hard_easy_profile, load_profile, make_profile, save_profile
from dsb.state import StepRecord, Vocab


@pytest.fixture()
def prompt_file(tmp_path):
    path = tmp_path / "p.tok"
    path.write_text("1 2 3\n")
    return str(path)


TOY = "toy:seed=5,v=33,d=32,h=2,layers=2,maxlen=64"
# A decode of 8 tokens by fixed blocks of 4, top-1 commits and no cache on the toy model.
DECODE = {"--scheduler": "naive:B=4", "--sampler": "vanilla", "--cache": "nocache", "--denoiser": TOY,
          "--gen-len": "8"}


def decode(prompt_file, *flags):
    """`dsb decode` of ``prompt_file`` with DECODE's flags, each of ``flags`` (flag, value, ...) in its place."""
    args = {**DECODE, "--prompt-file": str(prompt_file), **dict(zip(flags[::2], flags[1::2]))}
    return main(["decode", *chain.from_iterable(args.items())])


def test_decode_writes_trace_and_csv(tmp_path, prompt_file, capsys):
    trace = tmp_path / "out.trace"
    csv_path = tmp_path / "out.csv"
    code = main([
        "decode",
        "--scheduler", "dsb:init=4,max=unbounded",
        "--sampler", "threshold:tau=0.9",
        "--cache", "dsbcache:pmin=4",
        "--denoiser", "toy:seed=42,v=33,d=32,h=2,layers=2,maxlen=64",
        "--prompt-file", prompt_file,
        "--gen-len", "12",
        "--trace", str(trace),
        "--csv", str(csv_path),
    ])
    assert code == 0
    records = read_trace(str(trace))
    assert sum(rec.commits for rec in records) == 12
    with open(csv_path) as fh:
        parsed = list(csv.reader(fh))
    assert parsed[0] == ROW_COLUMNS
    assert len(parsed) == 2
    out = capsys.readouterr().out
    assert "steps=" in out and "response:" in out


def test_decode_with_oracle_profile(tmp_path, prompt_file, capsys):
    profile = hard_easy_profile(8, hard_position=2, vocab=Vocab(65, 64), radius=2, seed=3)
    ppath = tmp_path / "profile.txt"
    save_profile(profile, str(ppath))
    assert decode(prompt_file, "--denoiser", f"oracle:profile={ppath}") == 0
    assert "steps=8" in capsys.readouterr().out


def test_decode_csv_row_equals_the_grid_cell_row(tmp_path):
    """`dsb decode --csv` and a one-cell grid build their rows with one helper: for
    the same oracle decode they agree in every column but the wall time and
    the grid seed, which a lone decode leaves empty."""
    vocab = Vocab(65, 64)
    ppath = tmp_path / "profile.txt"
    save_profile(hard_easy_profile(24, hard_position=5, vocab=vocab, radius=2, seed=3), str(ppath))
    config = ["dsb:init=6,max=unbounded", "threshold:tau=0.9", "nocache", f"oracle:profile={ppath}"]
    (cell,) = run_grid(GridSpec(*([c] for c in config), seeds=[0], gen_len=24, prompt_len=4))
    prompt = tmp_path / "p.tok"
    prompt.write_text(" ".join(str(t) for t in make_prompt(vocab, 4, 0)))
    decoded_csv = tmp_path / "decode.csv"
    code = main([
        "decode",
        "--scheduler", config[0],
        "--sampler", config[1],
        "--cache", config[2],
        "--denoiser", config[3],
        "--prompt-file", str(prompt),
        "--gen-len", "24",
        "--csv", str(decoded_csv),
    ])
    assert code == 0
    cell_csv = tmp_path / "cell.csv"
    write_csv([cell], str(cell_csv))
    rows = []
    for path in (decoded_csv, cell_csv):
        with open(path) as fh:
            (row,) = csv.DictReader(fh)
        del row["wall_time_s"]
        rows.append(row)
    assert (rows[0].pop("seed"), rows[1].pop("seed")) == ("", "0")
    assert rows[0]["exact_match"] != "" and rows[0]["commits_total"] == "24"
    assert rows[0] == rows[1]


def test_grid_command(tmp_path, capsys):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(
        "gen_len = 8\n"
        "prompt_len = 2\n"
        "seeds = 0\n"
        "schedulers = naive:B=4; dsb:init=4,max=4\n"
        "samplers = vanilla\n"
        "caches = nocache\n"
        "denoisers = toy:seed=5,v=33,d=32,h=2,layers=2,maxlen=64\n"
    )
    out_csv = tmp_path / "rows.csv"
    code = main(["grid", "--config", str(cfg), "--csv", str(out_csv), "--summary"])
    assert code == 0
    with open(out_csv) as fh:
        parsed = list(csv.reader(fh))
    assert parsed[0] == ROW_COLUMNS
    assert len(parsed) == 3
    assert "steps_mean" in capsys.readouterr().out


# The rejection contract: a bad invocation exits 2 with an `error:` line that
# names the culprit, before any decode or grid cell runs and before any output
# is touched.  A row's edits turn a valid `decode` (of the toy or the oracle) or
# `grid` (of both) into a bad one: a flag's value (a spec flag's value becomes
# the first entry of the grid's axis) or a file's content (None deletes it).
# "{d}" stands for the run's directory.
PROFILE = "gain=0.5\nradius=2\nseed=1\n" + "".join(f"{i} 0.5 {i + 1}\n" for i in range(8))
GRID = ("gen_len = 8\nprompt_len = 2\nseeds = 0\nschedulers = naive:B=4\nsamplers = vanilla\n"
        f"caches = nocache\ndenoisers = {TOY}; oracle:profile={{d}}/p,v=33\n")
AXES = {"--scheduler": "schedulers", "--sampler": "samplers", "--cache": "caches", "--denoiser": "denoisers"}
DECODES, ALL = ("toy", "oracle"), ("toy", "oracle", "grid")
KV = "cache policies other than nocache need a denoiser with KV support"
NO_FILE = "No such file or directory: '{d}/"


def grid(old, new):
    return ("grid",), {"grid.cfg": GRID.replace(old, new)}


REJECTIONS = {  # family -> rows of (kinds, edits, text the error must contain)
    "spec string": [
        (ALL, {"--scheduler": "naive:B=0"}, "block size must be >= 1, got 0 in 'naive:B=0'"),
        (ALL, {"--scheduler": "dsb:init=8,max=4"}, "max size 4 smaller than init size 8 in 'dsb:init=8,max=4'"),
        (ALL, {"--scheduler": "dsb:init=32,max=x"}, "parameter 'max' in 'dsb:init=32,max=x' is not an integer"),
        (ALL, {"--sampler": "threshold:tau=2"}, "tau must lie in (0, 1], got 2.0 in 'threshold:tau=2'"),
        (ALL, {"--sampler": "vanilla:tau=0.9"}, "unknown parameter(s) ['tau'] in 'vanilla:tau=0.9'"),
        (ALL, {"--cache": "dsbcache:pmin=0"}, "prefix_min must be >= 1, got 0 in 'dsbcache:pmin=0'"),
        (ALL, {"--cache": "lru"}, "unknown cache policy 'lru' in 'lru'"),
        (ALL, {"--denoiser": "toy:v=33,h=0"}, "heads must be >= 1, got 0 in 'toy:v=33,h=0'"),
        (ALL, {"--denoiser": "toy:seed=-1"}, "seed must be >= 0, got -1 in 'toy:seed=-1'"),
        # 10**15 positions need 455 PiB, which no 64-bit address space maps, so the allocation fails at once.
        (ALL, {"--denoiser": "toy:maxlen=1000000000000000"}, "in 'toy:maxlen=1000000000000000'"),
        (ALL, {"--denoiser": "oracle:profile={d}/p,v=2"}, "two non-mask tokens in 'oracle:profile={d}/p,v=2'"),
    ],
    "specs that check_config rejects together": [
        (("toy",), {"--gen-len": "62"}, "prompt + response length 65 exceeds max_len 64"),
        (("oracle",), {"--gen-len": "9"}, "profile scripted for length 8, got gen_len 9"),
        (DECODES, {"--gen-len": "0"}, "gen_len must be >= 1, got 0"),
        (("oracle", "grid"), {"--cache": "dual"}, KV),
        (("oracle",), {"--cache": "dsbcache:pmin=4"}, KV),
        (*grid("gen_len = 8", "gen_len = 63"),
         f"denoiser {TOY!r} with cache 'nocache': prompt + response length 65 exceeds max_len 64"),
    ],
    "grid key or value": [
        (*grid("caches", "premature_floor = 0.5\ncaches"), "{d}/grid.cfg: unknown key(s) ['premature_floor']"),
        (*grid("schedulers = naive:B=4\n", ""), "{d}/grid.cfg: missing required key 'schedulers'"),
        (*grid("gen_len = 8", "gen_len = x"), "{d}/grid.cfg: key 'gen_len' needs an integer, got 'x'"),
        (*grid("seeds = 0", "seeds = 0 -1"), "grid seeds must be >= 0, got -1"),
        (*grid("= vanilla", "= ;"), "{d}/grid.cfg: key 'samplers' has no entries"),
        (*grid("= vanilla", "vanilla"), "{d}/grid.cfg:5: expected `key = value`, got 'samplers vanilla'"),
    ],
    "duplicated grid key": [
        (*grid("caches", "seeds = 1\ncaches"), "{d}/grid.cfg:6: duplicate key 'seeds'"),
        (*grid("prompt_len", "gen_len = 8\nprompt_len"), "{d}/grid.cfg:2: duplicate key 'gen_len'"),
    ],
    "file bytes": [
        (DECODES, {"p.tok": b"1 2\n3\xff\n"}, "{d}/p.tok:2: 'utf-8' codec can't decode byte 0xff"),
        (("oracle", "grid"), {"p": PROFILE.encode() + b"\xe9\n"}, "{d}/p:12: 'utf-8' codec can't decode"),
        (("grid",), {"grid.cfg": GRID.encode() + b"# caf\xe9\n"}, "{d}/grid.cfg:8: 'utf-8' codec can't decode"),
        (DECODES, {"p.tok": "1 2\n3 x\n"}, "{d}/p.tok:2: token id needs an integer, got 'x'"),
        (("oracle", "grid"), {"p": PROFILE.replace("3 0.5", "3 x")}, "{d}/p:7: delta needs a number, got 'x'"),
    ],
    "missing file or directory": [
        (DECODES, {"--prompt-file": "{d}/absent"}, NO_FILE + "absent'"),
        (("oracle", "grid"), {"p": None}, NO_FILE + "p'"),
        (("grid",), {"--config": "{d}/absent"}, NO_FILE + "absent'"),
        (ALL, {"--csv": "{d}/absent/rows.csv"}, NO_FILE + "absent/rows.csv'"),
        (DECODES, {"--trace": "{d}/absent/out.trace"}, NO_FILE + "absent/out.trace'"),
    ],
    "output naming an input or another output": [
        (DECODES, {"--trace": "{d}/out.csv"}, "--trace {d}/out.csv names the same file as --csv {d}/out.csv"),
        (DECODES, {"--trace": "{d}/p.tok"}, "--trace {d}/p.tok names the same file as --prompt-file {d}/p.tok"),
        (("oracle",), {"--csv": "{d}/./p"}, "--csv {d}/./p names the same file as oracle profile {d}/p"),
        (("grid",), {"--csv": "{d}/grid.cfg"}, "--csv {d}/grid.cfg names the same file as --config {d}/grid.cfg"),
        (("grid",), {"--csv": "{d}/p"}, "--csv {d}/p names the same file as oracle profile {d}/p"),
    ],
    "prompt id": [
        (DECODES, {"p.tok": f"1 {bad}\n3\n"}, f"prompt token id {bad} is outside the vocabulary or the mask id")
        for bad in (32, 33, -1, 10**23)
    ],
    "eos id": [(DECODES, {"--eos-id": str(eos)}, f"eos_id {eos} can never be committed") for eos in (32, 33, -1)],
}


def spy(fn, calls):
    def recorded(*args, **kwargs):
        calls.append(fn.__name__)
        return fn(*args, **kwargs)
    return recorded


@settings(max_examples=100, deadline=None)
@given(family=st.sampled_from(sorted(REJECTIONS)), data=st.data())
def test_every_rejected_invocation_exits_2_before_any_output(tmp_path_factory, family, data):
    """A row of a family, on a valid invocation of a kind it names, exits 2 with an
    `error:` line holding the row's text; no decode or grid cell runs, and every
    file is as it was, with none added.  The valid invocation exits 0 first, and
    each of its outputs is kept or deleted."""
    kinds, edits, error = data.draw(st.sampled_from(REJECTIONS[family]))
    kind = data.draw(st.sampled_from(kinds))
    d = tmp_path_factory.mktemp("cli")
    files = {"p": PROFILE, **({"grid.cfg": GRID} if kind == "grid" else {"p.tok": "1 2\n3\n"})}
    flags = ({"--config": "{d}/grid.cfg", "--csv": "{d}/rows.csv"} if kind == "grid" else
             {**DECODE, "--denoiser": "oracle:profile={d}/p,v=33" if kind == "oracle" else TOY,
              "--prompt-file": "{d}/p.tok", "--csv": "{d}/out.csv", "--trace": "{d}/out.trace"})
    calls = []

    def listing():
        return {path: path.read_bytes() if path.is_file() else None for path in d.rglob("*")}

    def run():
        for name, content in files.items():
            if content is None:
                (d / name).unlink()
            else:
                raw = content if isinstance(content, bytes) else content.encode()
                (d / name).write_bytes(raw.replace(b"{d}", str(d).encode()))
        before = listing()
        argv = [arg.replace("{d}", str(d)) for arg in chain.from_iterable(flags.items())]
        with pytest.MonkeyPatch.context() as m, redirect_stderr(StringIO()) as err, redirect_stdout(StringIO()):
            for name in ("decode", "new_sequence"):
                m.setattr(dsb.engine, name, spy(getattr(dsb.engine, name), calls))
            return main(["grid" if kind == "grid" else "decode", *argv]), err.getvalue(), before

    assert run()[0] == 0 and calls, "the valid invocation decodes"
    for output in ("--csv", "--trace"):
        if output in flags and data.draw(st.booleans(), label=f"delete {output}"):
            os.unlink(flags[output].replace("{d}", str(d)))
    for key, value in edits.items():
        if kind == "grid" and key in AXES:
            files["grid.cfg"] = files["grid.cfg"].replace(f"{AXES[key]} = ", f"{AXES[key]} = {value}; ")
        else:
            (flags if key.startswith("--") else files)[key] = value
    calls.clear()
    code, err, before = run()
    assert code == 2 and err.startswith("error: ") and error.replace("{d}", str(d)) in err, err
    assert calls == [], "a decode or grid cell ran"
    assert listing() == before


@pytest.mark.parametrize(
    "caches, denoisers",
    [
        ("nocache; dual", f"{TOY}; oracle:profile={{profile}}"),
        ("nocache", f"{TOY}; toy:seed=1,bogus=2"),
        ("nocache", f"{TOY}; toy:seed=1,maxlen=9"),
        ("nocache", f"{TOY}; oracle:profile={{profile}},v=3"),
        ("nocache", f"{TOY}; oracle:profile={{short_profile}}"),
        ("nocache", f"{TOY}; oracle:profile={{profile}}.missing"),
    ],
    ids=["oracle-dual", "unknown-param", "over-maxlen", "bad-truth", "bad-length", "no-profile"],
)
def test_bad_grid_fails_before_the_first_cell(tmp_path, monkeypatch, capsys, caches, denoisers):
    paths = {}
    for name, gen_len in (("profile", 8), ("short_profile", 6)):
        paths[name] = tmp_path / f"{name}.txt"
        save_profile(hard_easy_profile(gen_len, 2, Vocab(65, 64), radius=2, seed=3), str(paths[name]))
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(
        "gen_len = 8\n"
        "prompt_len = 2\n"
        "schedulers = naive:B=4\n"
        "samplers = vanilla\n"
        f"caches = {caches}\n"
        f"denoisers = {denoisers.format(**paths)}\n"
    )
    cells = []
    monkeypatch.setattr(dsb.engine, "decode", lambda *args, **kw: cells.append(args))
    out_csv = tmp_path / "rows.csv"
    code = main(["grid", "--config", str(cfg), "--csv", str(out_csv)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")
    assert cells == [] and not out_csv.exists()


# maxlen=10**15 needs 455 PiB, which no 64-bit address space maps, so the allocation fails at once.
@pytest.mark.parametrize("bad", ["h=0", "d=0", "d=-4", "seed=-1", "maxlen=1000000000000000"])
def test_bad_toy_value_is_a_clean_error_in_decode_and_grid(tmp_path, prompt_file, capsys, bad):
    spec = f"toy:v=33,layers=2,{bad}"
    assert decode(prompt_file, "--denoiser", spec) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(spec) in err
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(
        "gen_len = 8\nprompt_len = 2\nschedulers = naive:B=4\nsamplers = vanilla\n"
        f"caches = nocache\ndenoisers = {spec}\n"
    )
    out_csv = tmp_path / "rows.csv"
    assert main(["grid", "--config", str(cfg), "--csv", str(out_csv)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(spec) in err
    assert not out_csv.exists()


SPELLINGS = ["toy:v=33,d=32,h=2,layers=2,maxlen=96", "toy:seed=0,v=33,d=32,h=2,layers=2,maxlen=96"]
TAUS = ["threshold:tau=0.9", "threshold:tau=0.9000001"]
# One profile file named three ways is one group; `d/..` stays, as d may be a symlink.
PATHS = [f"oracle:profile={path}" for path in ("p.txt", "./p.txt", ".//p.txt", "d/../p.txt")]


@pytest.mark.parametrize(
    "column, specs, written, n_runs",
    [("denoiser", SPELLINGS, [SPELLINGS[1]] * 2, ["2"]), ("sampler", TAUS, TAUS, ["1", "1"]),
     ("denoiser", PATHS, [f"{PATHS[0]},v=65"] * 3 + [f"{PATHS[3]},v=65"], ["3", "1"])],
    ids=["one-model-two-spellings", "two-taus", "one-profile-two-paths"],
)
def test_summary_groups_by_canonical_spec(tmp_path, monkeypatch, capsys, column, specs, written, n_runs):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d").mkdir()
    (tmp_path / "p.txt").write_text(PROFILE)
    axes = {"sampler": "vanilla", "denoiser": SPELLINGS[1], column: "; ".join(specs)}
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(
        "gen_len = 8\nprompt_len = 2\nseeds = 0\nschedulers = naive:B=4\n"
        f"samplers = {axes['sampler']}\ncaches = nocache\ndenoisers = {axes['denoiser']}\n"
    )
    out_csv = tmp_path / "rows.csv"
    assert main(["grid", "--config", str(cfg), "--csv", str(out_csv), "--summary"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert [row.split()[header.split().index("n_runs")] for row in rows] == n_runs
    with open(out_csv) as fh:
        assert [row[column] for row in csv.DictReader(fh)] == written


def save_mixed_profile(path):
    n = 96
    save_profile(make_profile([(i * 37 % n) / 120 for i in range(n)], 0.6, 3,
                              [(5 * i + 3) % 64 for i in range(n)], 2**63 + 7), str(path))


def decode_mixed_profile(profile, prompt_file, *extra):
    return main(["decode", "--scheduler", "naive:B=32", "--sampler", "threshold:tau=0.9",
                 "--cache", "nocache", "--denoiser", f"oracle:profile={profile}",
                 "--prompt-file", prompt_file, "--gen-len", "96", *extra])


def test_eos_id_stops_the_decode_early(tmp_path, prompt_file, capsys):
    save_mixed_profile(tmp_path / "mixed.profile")
    assert decode_mixed_profile(tmp_path / "mixed.profile", prompt_file, "--eos-id", "28") == 0
    assert "early_stopped=True" in capsys.readouterr().out.splitlines()[0]


@pytest.mark.parametrize(
    "spoil",
    [lambda text: "gain=0.5\n" + text, lambda text: re.sub(r"^gain=.*$", "gain=5", text, flags=re.M)],
    ids=["duplicate-header", "gain-5"],
)
def test_bad_profile_exits_2_naming_the_file(tmp_path, prompt_file, capsys, spoil):
    good, bad = tmp_path / "mixed.profile", tmp_path / "bad.profile"
    save_mixed_profile(good)
    bad.write_text(spoil(good.read_text()))
    assert decode_mixed_profile(bad, prompt_file) == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}")


@pytest.mark.parametrize(
    "prompt, profile, where",
    [
        ("1 2\n3 x\n", None, "p.tok:2: token id"),
        ("1 2 3\n", "gain=0.5\nradius=2\nseed=1\n0 0.5 4\n1 x 4\n", "profile.txt:5: delta"),
        ("1 2 3\n", "gain=0.5\nradius=x\nseed=1\n0 0.5 4\n", "profile.txt:2: key 'radius'"),
    ],
    ids=["prompt-token", "profile-record", "profile-header"],
)
def test_non_numeric_file_value_names_the_file_and_line(tmp_path, capsys, prompt, profile, where):
    (tmp_path / "p.tok").write_text(prompt)
    denoiser = TOY
    if profile is not None:
        (tmp_path / "profile.txt").write_text(profile)
        denoiser = f"oracle:profile={tmp_path / 'profile.txt'}"
    assert decode(tmp_path / "p.tok", "--scheduler", "naive:B=2", "--denoiser", denoiser, "--gen-len", "2") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path / where}") and err.rstrip().endswith("got 'x'")


# Each reader's file: a valid first line, then a line holding a byte that is not UTF-8.
NON_UTF8_FILES = {
    "prompt": (_read_prompt, b"1 2 3", b"4 \xff 5"),
    "profile": (load_profile, b"gain=0.5", b"radius=\xff"),
    "grid": (parse_grid_file, b"gen_len = 8", b"# caf\xe9"),
    "trace": (read_trace, StepRecord(0, 8, 12, [8], [3], [0.5], 12, "none", False).to_json().encode(),
              b'{"step":\xff}'),
}


@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("kind", list(NON_UTF8_FILES))
def test_non_utf8_file_names_the_file_and_line(tmp_path, kind, newline):
    read, first, second = NON_UTF8_FILES[kind]
    path = tmp_path / f"{kind}.txt"
    path.write_bytes(first + newline + second + newline + first + newline)
    with pytest.raises(ValueError) as info:
        read(str(path))
    assert type(info.value) is ValueError
    assert str(info.value).startswith(f"{path}:2: 'utf-8' codec can't decode byte ")


@pytest.mark.parametrize("key", ["seeds", "gen_len", "prompt_len"])
def test_non_numeric_grid_value_names_the_file_and_key(tmp_path, capsys, key):
    lines = {"gen_len": "8", "prompt_len": "2", "seeds": "0 1"}
    lines[key] = "0 x" if key == "seeds" else "x"
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(
        "".join(f"{k} = {v}\n" for k, v in lines.items())
        + f"schedulers = naive:B=4\nsamplers = vanilla\ncaches = nocache\ndenoisers = {TOY}\n"
    )
    out_csv = tmp_path / "rows.csv"
    assert main(["grid", "--config", str(cfg), "--csv", str(out_csv)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}: key '{key}' needs ") and err.rstrip().endswith("got 'x'")
    assert not out_csv.exists()
