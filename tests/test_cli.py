import csv
import os
from itertools import chain, compress, product

import pytest

import dsb.engine
from dsb.cli import _read_prompt, build_parser, main
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


def test_gen_len_defaults_to_256():
    flags = {**DECODE, "--prompt-file": "p.tok"}
    del flags["--gen-len"]
    assert build_parser().parse_args(["decode", *chain.from_iterable(flags.items())]).gen_len == 256


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
# "{d}" stands for the run's directory.  A row's text is held in the error, or,
# when it starts with "error: ", is the whole of stderr's one line.
PROFILE = "gain=0.5\nradius=2\nseed=1\n" + "".join(f"{i} 0.5 {i + 1}\n" for i in range(8))
GRID = ("gen_len = 8\nprompt_len = 2\nseeds = 0\nschedulers = naive:B=4\nsamplers = vanilla\n"
        f"caches = nocache\ndenoisers = {TOY}; oracle:profile={{d}}/p,v=33\n")
AXES = {"--scheduler": "schedulers", "--sampler": "samplers", "--cache": "caches", "--denoiser": "denoisers"}
DECODES, ALL = ("toy", "oracle"), ("toy", "oracle", "grid")
KV = "cache policies other than nocache need a denoiser with KV support"
NO_FILE = "No such file or directory: '{d}/"
ORACLE_CELL = "error: denoiser 'oracle:profile={d}/p,v=33' with cache"


def grid(old, new):
    return ("grid",), {"grid.cfg": GRID.replace(old, new)}


REJECTIONS = {  # family -> rows of (kinds, edits, text the error must hold or be)
    "spec string": [
        (ALL, {"--scheduler": "naive:B=0"}, "block size must be >= 1, got 0 in 'naive:B=0'"),
        (ALL, {"--scheduler": "dsb:init=8,max=4"}, "max size 4 smaller than init size 8 in 'dsb:init=8,max=4'"),
        (ALL, {"--scheduler": "dsb:init=32,max=x"}, "parameter 'max' in 'dsb:init=32,max=x' is not an integer"),
        (ALL, {"--scheduler": "dsb:init"}, "malformed parameter 'init' in 'dsb:init'"),
        (ALL, {"--sampler": "threshold:tau=2"}, "tau must lie in (0, 1], got 2.0 in 'threshold:tau=2'"),
        (ALL, {"--sampler": "vanilla:tau=0.9"}, "unknown parameter(s) ['tau'] in 'vanilla:tau=0.9'"),
        (ALL, {"--cache": "dsbcache:pmin=0"}, "prefix_min must be >= 1, got 0 in 'dsbcache:pmin=0'"),
        (ALL, {"--cache": "lru"}, "unknown cache policy 'lru' in 'lru'"),
        (ALL, {"--denoiser": "toy:v=33,h=0"}, "heads must be >= 1, got 0 in 'toy:v=33,h=0'"),
        (ALL, {"--denoiser": "toy:v=33,d=0"}, "width must be >= 1, got 0 in 'toy:v=33,d=0'"),
        (ALL, {"--denoiser": "toy:v=33,d=-4"}, "width must be >= 1, got -4 in 'toy:v=33,d=-4'"),
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
    "a grid entry after a valid one": [
        (*grid("= nocache", "= nocache; dual"), f"{ORACLE_CELL} 'dual': {KV}"),
        (*grid(f"{TOY}; ", f"{TOY}; toy:seed=1,bogus=2; "),
         "error: unknown parameter(s) ['bogus'] in 'toy:seed=1,bogus=2'"),
        (*grid(f"{TOY}; ", f"{TOY}; toy:seed=1,maxlen=9; "), "error: denoiser 'toy:seed=1,maxlen=9' with "
         "cache 'nocache': prompt + response length 10 exceeds max_len 9"),
        (*grid(",v=33", ",v=3"),
         "error: ground-truth token 2 invalid for the vocabulary in 'oracle:profile={d}/p,v=3'"),
        (("grid",), {"p": PROFILE.replace("6 0.5 7\n7 0.5 8\n", "")},
         f"{ORACLE_CELL} 'nocache': profile scripted for length 6, got gen_len 8"),
    ],
    "grid key or value": [
        (*grid("caches", "premature_floor = 0.5\ncaches"), "{d}/grid.cfg: unknown key(s) ['premature_floor']"),
        *((*grid(line, ""), f"error: {{d}}/grid.cfg: missing required key {line.split()[0]!r}")
          for line in GRID.splitlines(keepends=True)
          if line.split()[0] in ("schedulers", "samplers", "caches", "denoisers", "gen_len")),
        (*grid("gen_len = 8", "gen_len = x"), "error: {d}/grid.cfg: key 'gen_len' needs an integer, got 'x'"),
        (*grid("prompt_len = 2", "prompt_len = x"),
         "error: {d}/grid.cfg: key 'prompt_len' needs an integer, got 'x'"),
        (*grid("seeds = 0", "seeds = 0 x"), "error: {d}/grid.cfg: key 'seeds' needs an integer, got 'x'"),
        (*grid("seeds = 0", "seeds = 0 -1"), "grid seeds must be >= 0, got -1"),
        (*grid("= vanilla", "= ;"), "{d}/grid.cfg: key 'samplers' has no entries"),
        (*grid("= vanilla", "vanilla"), "{d}/grid.cfg:5: expected `key = value`, got 'samplers vanilla'"),
        (*grid("= vanilla", "="), "error: {d}/grid.cfg:5: expected `key = value`, got 'samplers ='"),
    ],
    "duplicated grid key": [
        (*grid("caches", "seeds = 1\ncaches"), "{d}/grid.cfg:6: duplicate key 'seeds'"),
        (*grid("prompt_len", "gen_len = 8\nprompt_len"), "{d}/grid.cfg:2: duplicate key 'gen_len'"),
    ],
    "profile header": [
        (("oracle", "grid"), {"p": "gain=0.5\n" + PROFILE}, "error: {d}/p:2: duplicate header key 'gain'"),
        (("oracle", "grid"), {"p": PROFILE.replace("gain=0.5", "gain=5")},
         "error: {d}/p: context_gain must lie in [0, 1], got 5.0"),
        (("oracle", "grid"), {"p": PROFILE.replace("radius=2", "radius=x")},
         "error: {d}/p:2: key 'radius' needs an integer, got 'x'"),
        (("oracle", "grid"), {"p": PROFILE.replace("radius=2", "radius=-2")},
         "error: {d}/p: radius must be >= 1, got -2"),
        (("oracle", "grid"), {"p": PROFILE.replace("seed=1\n", "")}, "error: {d}/p: missing header field 'seed'"),
    ],
    "profile records": [
        (("oracle", "grid"), {"p": PROFILE.replace("3 0.5 4", "3 0.5")},
         "error: {d}/p:7: expected `index delta truth`, got '3 0.5'"),
        (("oracle", "grid"), {"p": PROFILE.replace("3 0.5 4", "0=1")},
         "error: {d}/p:7: expected `index delta truth`, got '0=1'"),
        (("oracle", "grid"), {"p": PROFILE.replace("3 0.5 4", "3 0.5 33")},
         "ground-truth token 33 invalid for the vocabulary"),
        (("oracle", "grid"), {"p": PROFILE.replace("3 0.5 4\n", "")},
         "error: {d}/p: position records must cover 0..N-1 exactly once"),
        (("oracle", "grid"), {"p": PROFILE.replace("3 0.5", "3 3")},
         "error: {d}/p:7: delta must lie in [0, 1], got 3.0"),
        (("oracle", "grid"), {"p": "gain=0.5\nradius=2\nseed=1\n"}, "error: {d}/p: a profile needs at least one position"),
    ],
    "file bytes": [
        (DECODES, {"p.tok": b"1 2\n3\xff\n"}, "{d}/p.tok:2: 'utf-8' codec can't decode byte 0xff"),
        (("oracle", "grid"), {"p": PROFILE.encode() + b"\xe9\n"}, "{d}/p:12: 'utf-8' codec can't decode"),
        (("grid",), {"grid.cfg": GRID.encode() + b"# caf\xe9\n"}, "{d}/grid.cfg:8: 'utf-8' codec can't decode"),
        (DECODES, {"p.tok": "1 2\n3 x\n"}, "error: {d}/p.tok:2: token id needs an integer, got 'x'"),
        (("oracle", "grid"), {"p": PROFILE.replace("3 0.5", "3 x")}, "error: {d}/p:7: delta needs a number, got 'x'"),
    ],
    "missing file or directory": [
        (DECODES, {"--prompt-file": "{d}/absent"}, NO_FILE + "absent'"),
        (("oracle", "grid"), {"p": None}, NO_FILE + "p'"),  # the grid's oracle is its second denoiser
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


def test_every_rejected_invocation_exits_2_before_any_output(tmp_path, monkeypatch, capsys):
    """Every row of every family, on a valid invocation of each kind it names,
    with each of that invocation's outputs kept or deleted, exits 2 with an
    `error:` line holding or being the row's text; no decode or grid cell runs,
    and every file is as it was, with none added.  The valid invocation of each
    kind exits 0 first, and its directory is restored before each case."""
    calls = []
    for name in ("decode", "new_sequence"):
        monkeypatch.setattr(dsb.engine, name, spy(getattr(dsb.engine, name), calls))
    for kind in ALL:
        d = tmp_path / kind
        d.mkdir()

        def write(name, content):
            raw = content if isinstance(content, bytes) else content.encode()
            (d / name).write_bytes(raw.replace(b"{d}", str(d).encode()))

        def listing():
            return {path: path.read_bytes() if path.is_file() else None for path in d.rglob("*")}

        def run(flags):
            argv = [arg.replace("{d}", str(d)) for arg in chain.from_iterable(flags.items())]
            calls.clear()
            return main(["grid" if kind == "grid" else "decode", *argv]), capsys.readouterr().err

        files = {"p": PROFILE, **({"grid.cfg": GRID} if kind == "grid" else {"p.tok": "1 2\n3\n"})}
        flags = ({"--config": "{d}/grid.cfg", "--csv": "{d}/rows.csv"} if kind == "grid" else
                 {**DECODE, "--denoiser": "oracle:profile={d}/p,v=33" if kind == "oracle" else TOY,
                  "--prompt-file": "{d}/p.tok", "--csv": "{d}/out.csv", "--trace": "{d}/out.trace"})
        for name, content in files.items():
            write(name, content)
        assert run(flags)[0] == 0 and calls, f"the valid {kind} invocation decodes"
        valid = listing()
        outputs = [flag for flag in ("--csv", "--trace") if flag in flags]
        rows = [(family, row) for family, table in REJECTIONS.items() for row in table if kind in row[0]]
        for (family, (_, edits, error)), deleted in product(rows, product((False, True), repeat=len(outputs))):
            for path, raw in valid.items():
                path.write_bytes(raw)
            for output in compress(outputs, deleted):
                os.unlink(flags[output].replace("{d}", str(d)))
            case_flags = dict(flags)
            for key, value in edits.items():
                if kind == "grid" and key in AXES:
                    write("grid.cfg", GRID.replace(f"{AXES[key]} = ", f"{AXES[key]} = {value}; "))
                elif key.startswith("--"):
                    case_flags[key] = value
                elif value is None:
                    (d / key).unlink()
                else:
                    write(key, value)
            before = listing()
            code, err = run(case_flags)
            case = f"{family} row {error!r} on {kind}, outputs deleted: {list(compress(outputs, deleted))}"
            text = error.replace("{d}", str(d))
            assert code == 2 and err.startswith("error: "), (case, err)
            assert err == text + "\n" if text.startswith("error: ") else text in err, (case, err)
            assert calls == [], f"a decode or grid cell ran: {case}"
            assert listing() == before, case


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


def test_eos_id_stops_the_decode_early(tmp_path, prompt_file, capsys):
    n, path = 96, tmp_path / "mixed.profile"
    save_profile(make_profile([(i * 37 % n) / 120 for i in range(n)], 0.6, 3,
                              [(5 * i + 3) % 64 for i in range(n)], 2**63 + 7), str(path))
    assert decode(prompt_file, "--scheduler", "naive:B=32", "--sampler", "threshold:tau=0.9",
                  "--denoiser", f"oracle:profile={path}", "--gen-len", "96", "--eos-id", "28") == 0
    assert "early_stopped=True" in capsys.readouterr().out.splitlines()[0]


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
