import csv
import re
from itertools import chain

import pytest

import dsb.engine
from dsb.cli import _read_prompt, main
from dsb.engine import make_prompt, parse_grid_file, read_trace, run_cell
from dsb.metrics import ROW_COLUMNS, write_csv
from dsb.oracle import hard_easy_profile, load_profile, make_profile, save_profile
from dsb.state import StepRecord, Vocab


@pytest.fixture()
def prompt_file(tmp_path):
    path = tmp_path / "p.tok"
    path.write_text("1 2 3\n")
    return str(path)


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
    code = main([
        "decode",
        "--scheduler", "naive:B=4",
        "--sampler", "vanilla",
        "--cache", "nocache",
        "--denoiser", f"oracle:profile={ppath}",
        "--prompt-file", prompt_file,
        "--gen-len", "8",
    ])
    assert code == 0
    assert "steps=8" in capsys.readouterr().out


def test_decode_csv_row_equals_the_grid_cell_row(tmp_path):
    """`dsb decode --csv` and `run_cell` build their rows with one helper: for
    the same oracle decode they agree in every column but the wall time and
    the grid seed, which a lone decode leaves empty."""
    vocab = Vocab(65, 64)
    ppath = tmp_path / "profile.txt"
    save_profile(hard_easy_profile(24, hard_position=5, vocab=vocab, radius=2, seed=3), str(ppath))
    config = ["dsb:init=6,max=unbounded", "threshold:tau=0.9", "nocache", f"oracle:profile={ppath}"]
    cell = run_cell(*config, seed=0, gen_len=24, prompt_len=4)
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


@pytest.mark.parametrize("cache", ["dual", "dsbcache:pmin=4"])
def test_oracle_with_kv_cache_is_a_clean_error(tmp_path, prompt_file, cache, capsys):
    profile = hard_easy_profile(8, hard_position=2, vocab=Vocab(65, 64), radius=2, seed=3)
    ppath = tmp_path / "profile.txt"
    save_profile(profile, str(ppath))
    code = main([
        "decode",
        "--scheduler", "naive:B=4",
        "--sampler", "vanilla",
        "--cache", cache,
        "--denoiser", f"oracle:profile={ppath}",
        "--prompt-file", prompt_file,
        "--gen-len", "8",
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "nocache" in err


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


TOY = "toy:seed=5,v=33,d=32,h=2,layers=2,maxlen=64"


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
    monkeypatch.setattr(dsb.engine, "run_cell", lambda *args, **kw: cells.append(args))
    out_csv = tmp_path / "rows.csv"
    code = main(["grid", "--config", str(cfg), "--csv", str(out_csv)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")
    assert cells == [] and not out_csv.exists()


def test_grid_with_unknown_key_runs_no_cell(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(
        "gen_len = 8\nprompt_len = 2\nschedulers = naive:B=4\nsamplers = vanilla\n"
        f"caches = nocache\ndenoisers = {TOY}\npremature_floor = 0.5\n"
    )
    cells = []
    monkeypatch.setattr(dsb.engine, "run_cell", lambda *args, **kw: cells.append(args))
    out_csv = tmp_path / "rows.csv"
    code = main(["grid", "--config", str(cfg), "--csv", str(out_csv)])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {cfg}: unknown key(s) ['premature_floor']")
    assert cells == [] and not out_csv.exists()


def test_grid_with_unwritable_csv_runs_no_cell(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(
        "gen_len = 8\nprompt_len = 2\nschedulers = naive:B=4\nsamplers = vanilla\n"
        f"caches = nocache\ndenoisers = {TOY}\n"
    )
    cells = []
    monkeypatch.setattr(dsb.engine, "run_cell", lambda *args, **kw: cells.append(args))
    code = main(["grid", "--config", str(cfg), "--csv", str(tmp_path / "missing_dir" / "rows.csv")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert cells == []


@pytest.mark.parametrize(
    "flag, spec",
    [
        ("--scheduler", "naive:B=0"),
        ("--scheduler", "dsb:init=32,max=x"),
        ("--cache", "dsbcache:pmin=0"),
        ("--denoiser", "oracle:profile={profile},v=2"),
    ],
    ids=["naive-block-0", "dsb-max-x", "dsbcache-pmin-0", "oracle-v-2"],
)
def test_bad_config_string_is_a_clean_error(tmp_path, prompt_file, capsys, flag, spec):
    profile = tmp_path / "profile.txt"
    save_profile(hard_easy_profile(8, hard_position=2, vocab=Vocab(65, 64), radius=2, seed=3), str(profile))
    spec = spec.format(profile=profile)
    specs = {"--scheduler": "naive:B=4", "--sampler": "vanilla", "--cache": "nocache", "--denoiser": TOY}
    specs[flag] = spec
    code = main(["decode", *chain.from_iterable(specs.items()), "--prompt-file", prompt_file, "--gen-len", "8"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(spec) in err


def test_decode_with_unwritable_csv_runs_no_decode(tmp_path, prompt_file, monkeypatch, capsys):
    decodes = []
    monkeypatch.setattr(dsb.engine, "new_sequence", lambda *args, **kw: decodes.append(args))
    trace = tmp_path / "out.trace"
    code = main([
        "decode",
        "--scheduler", "naive:B=4",
        "--sampler", "vanilla",
        "--cache", "nocache",
        "--denoiser", TOY,
        "--prompt-file", prompt_file,
        "--gen-len", "8",
        "--trace", str(trace),
        "--csv", str(tmp_path / "missing_dir" / "out.csv"),
    ])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert decodes == [] and not trace.exists()


def test_missing_prompt_file_is_a_clean_error(tmp_path, capsys):
    code = main([
        "decode",
        "--scheduler", "naive:B=4",
        "--sampler", "vanilla",
        "--cache", "nocache",
        "--denoiser", "toy:seed=1,v=33,d=32,h=2,layers=2,maxlen=64",
        "--prompt-file", str(tmp_path / "absent.tok"),
        "--gen-len", "8",
    ])
    assert code == 2
    assert "error:" in capsys.readouterr().err


# maxlen=10**15 needs 455 PiB, which no 64-bit address space maps, so the allocation fails at once.
@pytest.mark.parametrize("bad", ["h=0", "d=0", "d=-4", "seed=-1", "maxlen=1000000000000000"])
def test_bad_toy_value_is_a_clean_error_in_decode_and_grid(tmp_path, prompt_file, capsys, bad):
    spec = f"toy:v=33,layers=2,{bad}"
    code = main([
        "decode",
        "--scheduler", "naive:B=4",
        "--sampler", "vanilla",
        "--cache", "nocache",
        "--denoiser", spec,
        "--prompt-file", prompt_file,
        "--gen-len", "8",
    ])
    assert code == 2
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


@pytest.mark.parametrize(
    "column, specs, written, n_runs",
    [("denoiser", SPELLINGS, [SPELLINGS[1]] * 2, ["2"]), ("sampler", TAUS, TAUS, ["1", "1"])],
    ids=["one-model-two-spellings", "two-taus"],
)
def test_summary_groups_by_canonical_spec(tmp_path, capsys, column, specs, written, n_runs):
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


@pytest.mark.parametrize("eos_id", ["32", "33", "-1"], ids=["mask-id", "vocab-size", "negative"])
def test_uncommittable_eos_id_fails_before_decoding(prompt_file, monkeypatch, capsys, eos_id):
    # decode checks the eos id first; new_sequence is the first work after it.
    decodes = []
    monkeypatch.setattr(dsb.engine, "new_sequence", lambda *args, **kw: decodes.append(args))
    code = main([
        "decode",
        "--scheduler", "naive:B=4",
        "--sampler", "vanilla",
        "--cache", "nocache",
        "--denoiser", "toy:seed=1,v=33,d=32,h=2,layers=2,maxlen=64",
        "--prompt-file", prompt_file,
        "--gen-len", "8",
        "--eos-id", eos_id,
    ])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: eos_id {eos_id} can never be committed")
    assert decodes == []


def save_mixed_profile(path):
    n = 96
    save_profile(make_profile([(i * 37 % n) / 120 for i in range(n)], 0.6, 3,
                              [(5 * i + 3) % 64 for i in range(n)], 2**63 + 7), str(path))


def decode_mixed_profile(profile, prompt_file, *extra):
    return main([
        "decode",
        "--scheduler", "naive:B=32",
        "--sampler", "threshold:tau=0.9",
        "--cache", "nocache",
        "--denoiser", f"oracle:profile={profile}",
        "--prompt-file", prompt_file,
        "--gen-len", "96",
        *extra,
    ])


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
    denoiser = "toy:seed=1,v=33,d=32,h=2,layers=2,maxlen=64"
    if profile is not None:
        (tmp_path / "profile.txt").write_text(profile)
        denoiser = f"oracle:profile={tmp_path / 'profile.txt'}"
    code = main([
        "decode",
        "--scheduler", "naive:B=2",
        "--sampler", "vanilla",
        "--cache", "nocache",
        "--denoiser", denoiser,
        "--prompt-file", str(tmp_path / "p.tok"),
        "--gen-len", "2",
    ])
    assert code == 2
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


def test_non_utf8_prompt_exits_2_naming_the_file(tmp_path, capsys):
    prompt = tmp_path / "p.tok"
    prompt.write_bytes(b"1 2 3\xff\n")
    code = main([
        "decode",
        "--scheduler", "naive:B=2",
        "--sampler", "vanilla",
        "--cache", "nocache",
        "--denoiser", "toy:seed=1,v=33,d=32,h=2,layers=2,maxlen=64",
        "--prompt-file", str(prompt),
        "--gen-len", "2",
    ])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {prompt}:1: ")


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
