import errno
import json
import os
import re
import subprocess
import sys
from pathlib import Path

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecac import cli, density, optimizer
from ecac.cli import _config_from_args, build_parser, cmd_ablate, cmd_plot, cmd_run, main
from ecac.config import DEFAULT_SWEEP, RunConfig, min_max_normalize, parse_config_file
from ecac.data import Dataset, generate_gaussian_mixture, smallest_pairwise_distances
from ecac.density import pairwise_distance_percentile, pairwise_distance_percentiles
from ecac.errors import ConfigError, MissingResult, NotPlottable
from ecac.optimizer import step_columns, trace_records
from ecac.pipeline import ClusteringResult
from ecac.svg import PALETTE, render_scatter

from test_data import traced_peak_mb


def dumps_per_step(steps) -> str:
    """The trace file of the four columns: per step, ``json.dumps`` of its
    record with sorted keys, and a newline."""
    return "".join(
        json.dumps({"object": int(o), "set": int(j), "dis": float(dis), "covered": int(covered)},
                   sort_keys=True) + "\n"
        for o, j, dis, covered in zip(*steps)
    )


ROOT = Path(__file__).resolve().parents[1]
SPIRAL = ["--data", str(ROOT / "data" / "spiral.csv"), "--label-col", "-1", "--k", "3"]
JAIN = ["--data", str(ROOT / "data" / "jain.csv"), "--label-col", "-1", "--k", "2"]

GEN_FLAGS = {
    "gen_k": 2,
    "gen_n": 30,
    "gen_means": "0,0 | 25,0",
    "gen_stddev": 1.0,
    "gen_seed": 3,
    "algo": "kmeans",
    "k": 2,
    "seed": 0,
}


# A generated source as config-file lines, without k or out.
GEN_TOML = 'gen_k = 2\ngen_n = 40\ngen_means = "0,0 | 30,0"\ngen_seed = 5\nalgo = "kmeans"\n'


def gen_config(tmp_path, **overrides) -> RunConfig:
    flags = dict(GEN_FLAGS, out=str(tmp_path / "out"))
    flags.update(overrides)
    return RunConfig.from_sources(None, flags)


def strip_timings(obj):
    if isinstance(obj, dict):
        return {k: strip_timings(v) for k, v in obj.items() if k != "timings"}
    if isinstance(obj, list):
        return [strip_timings(x) for x in obj]
    return obj


class TestConfig:
    def test_file_then_flag_precedence(self, tmp_path):
        cfg_file = tmp_path / "run.toml"
        cfg_file.write_text(
            'data = "data/spiral.csv"\nlabel_col = -1\nk = 3\nseed = 7\n# comment\n'
            "delta_sweep = [0.01, 0.02]\n"
        )
        values = parse_config_file(cfg_file)
        config = RunConfig.from_sources(values, {"seed": 99, "out": "elsewhere"})
        assert config.k == 3
        assert config.seed == 99  # flag wins
        assert config.out == "elsewhere"
        assert config.delta_sweep == [0.01, 0.02]

    def test_unknown_key(self, tmp_path):
        cfg_file = tmp_path / "run.toml"
        cfg_file.write_text("bogus = 1\nk = 2\n")
        with pytest.raises(ConfigError):
            RunConfig.from_sources(parse_config_file(cfg_file), {"data": "x"})

    def test_exactly_one_source(self):
        with pytest.raises(ConfigError):
            RunConfig.from_sources(None, {"k": 2})
        with pytest.raises(ConfigError):
            RunConfig.from_sources(None, {"k": 2, "data": "a.csv", "gen_k": 2})

    def test_delta_options_exclusive(self):
        with pytest.raises(ConfigError):
            RunConfig.from_sources(
                None, {"k": 2, "data": "a.csv", "delta": 1.0, "delta_percentile": 0.02}
            )

    def test_sweep_nonempty(self):
        with pytest.raises(ConfigError):
            RunConfig.from_sources(None, {"k": 2, "data": "a.csv", "delta_sweep": []})

    def test_sweep_from_comma_string_or_list(self):
        for value in ("0.01, 0.05", [0.01, 0.05], ["0.01", "0.05"]):
            config = RunConfig.from_sources(None, {"k": 2, "data": "a.csv", "delta_sweep": value})
            assert config.delta_sweep == [0.01, 0.05]

    def test_bad_sweep_flag_exits_2(self, tmp_path, capsys):
        argv = ["run", "--data", "data/spiral.csv", "--label-col", "-1", "--k", "3",
                "--delta-sweep", "0.01,abc", "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert "delta_sweep" in capsys.readouterr().err

    @pytest.mark.parametrize("line, key", [
        ("delta_sweep = 0.02", "delta_sweep"),
        ('delta_sweep = [0.01, "x"]', "delta_sweep"),
        ('k = "three"', "k"),
        ('cap = "x"', "cap"),
        ('delta_percentile = "x"', "delta_percentile"),
        ('delta = "x"', "delta"),
        ("seed = 1.5", "seed"),
        ("max_iter = true", "max_iter"),
        ('d_c = "x"', "d_c"),
        ('gen_k = "2"', "gen_k"),
        ('gen_seed = "x"', "gen_seed"),
        ("seed = -1", "seed"),
        ("gen_seed = -1", "gen_seed"),
        ("max_iter = 0", "max_iter"),
        ("max_iter = -3", "max_iter"),
        ("label_col = 1.5", "label_col"),
        ('normalize = "yes"', "normalize"),
    ])
    def test_bad_config_value_exits_2(self, tmp_path, capsys, line, key):
        cfg_file = tmp_path / "run.toml"
        base = "".join(
            f"{entry}\n" for entry in ('data = "data/spiral.csv"', "label_col = -1", "k = 3")
            if not entry.startswith(f"{key} =")
        )
        cfg_file.write_text(f"{base}{line}\n")
        argv = ["run", "--config", str(cfg_file), "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert f"error: {key} " in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("text", [
        None,  # no such file
        "k = 2\nk = 3\n",  # a key given twice
        "algo = kmeans\n",  # a bare string
        'out = "unterminated\n',
    ])
    def test_unreadable_config_file_exits_2(self, tmp_path, capsys, text):
        cfg_file = tmp_path / "run.toml"
        if text is not None:
            cfg_file.write_text(GEN_TOML + text)
        argv = ["run", "--config", str(cfg_file), "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(cfg_file) in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("lines", [
        'gen_means = "0,x | 1,2"',
        "gen_means = [[0, 0], [30]]",
        'gen_means = "0,0 | 30,0"\ngen_n = "x"',
    ])
    def test_bad_generator_value_exits_2(self, tmp_path, capsys, lines):
        cfg_file = tmp_path / "run.toml"
        cfg_file.write_text(f"gen_k = 2\n{lines}\nk = 2\n")
        argv = ["run", "--config", str(cfg_file), "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flags", [[], ["--delta", "0.5"]])
    def test_one_labelled_row_exits_2(self, tmp_path, capsys, flags):
        csv = tmp_path / "one.csv"
        csv.write_text("1.0,2.0,0\n")
        argv = ["run", "--data", str(csv), "--label-col", "-1", "--k", "1", *flags,
                "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: need at least two points\n"
        assert not (tmp_path / "o").exists()

    def test_data_naming_a_directory_exits_2(self, tmp_path, capsys):
        argv = ["run", "--data", str(tmp_path), "--k", "2", "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "o").exists()

    def test_empty_data_path_exits_2(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.toml"
        cfg_file.write_text('data = ""\nk = 2\n')
        argv = ["run", "--config", str(cfg_file), "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "o").exists()

    def test_csv_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        csv = tmp_path / "latin1.csv"
        csv.write_bytes("x,y\n1,2\n3,\u00e9\n".encode("latin-1"))
        argv = ["run", "--data", str(csv), "--k", "2", "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(csv) in err
        assert not (tmp_path / "o").exists()

    def test_hash_inside_a_string_is_kept(self, tmp_path):
        cfg_file = tmp_path / "run.toml"
        cfg_file.write_text(GEN_TOML + 'k = 2\nout = "runs/#3"  # comment\n')
        config = RunConfig.from_sources(parse_config_file(cfg_file), {})
        assert config.out == "runs/#3"

    def test_nested_list_means_run(self, tmp_path):
        cfg_file = tmp_path / "run.toml"
        cfg_file.write_text(
            GEN_TOML.replace('"0,0 | 30,0"', "[[0, 0], [30, 0]]") + "k = 2\n"
        )
        argv = ["run", "--config", str(cfg_file), "--out", str(tmp_path / "o")]
        assert main(argv) == 0
        dataset, truth = _config_from_args(build_parser().parse_args(argv)).load_dataset()
        assert dataset.n == 80 and truth.labels.tolist() == [0] * 40 + [1] * 40
        payload = json.loads((tmp_path / "o" / "result.json").read_text())
        assert payload["config"]["gen_means"] == [[0, 0], [30, 0]]

    def test_readme_config_block_loads(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        (block,) = re.findall(r"```toml\n(.*?)```", readme, flags=re.S)
        cfg_file = tmp_path / "demo.toml"
        cfg_file.write_text(block)
        config = RunConfig.from_sources(parse_config_file(cfg_file), {})
        assert (config.gen_k, config.gen_n, config.algo, config.k) == (2, 40, "kmeans", 2)
        dataset, truth = config.load_dataset()
        assert dataset.n == 80 and truth.k_true == 2

    def test_importing_the_cli_leaves_tomllib_unloaded(self, child_env):
        child = subprocess.run(
            [sys.executable, "-c", "import sys, ecac.cli; print('tomllib' in sys.modules)"],
            capture_output=True, text=True, env=child_env, check=True,
        )
        assert child.stdout.strip() == "False"

    def test_cli_runs_without_loading_scipy(self, tmp_path, child_env):
        # The package is pure NumPy: neither the import nor a run or an
        # ablation loads SciPy, whatever is installed.
        script = (
            "import sys, ecac.cli\n"
            "argv = ['--data', 'data/spiral.csv', '--label-col', '-1', '--k', '3']\n"
            f"assert ecac.cli.main(['run', *argv, '--algo', 'dpc', '--out', {str(tmp_path / 'r')!r}]) == 0\n"
            f"assert ecac.cli.main(['ablate', *argv, '--out', {str(tmp_path / 'a')!r}]) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        child = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=child_env, check=True,
        )
        assert child.stdout.strip().splitlines()[-1] == "[]"

    @pytest.mark.parametrize("command", [
        ["run", "--algo", "kmeans"],
        ["run", "--algo", "dpc"],
        ["ablate", "--variants", "local,global,random"],
    ], ids=["run-kmeans", "run-dpc", "ablate-random"])
    def test_commands_leave_numpy_random_and_hashlib_unloaded(self, tmp_path, command, child_env):
        # Seeded draws come from ecac.sampling: importing NumPy's random
        # package would load OpenSSL through hashlib. More than 1,000 rows,
        # so the percentile sample is drawn too, and one core, so every
        # draw runs in the process whose modules are read.
        points = np.random.default_rng(4).normal(size=(1_200, 2))
        points[600:] += 6.0
        csv = tmp_path / "blobs.csv"
        csv.write_text("".join(f"{x:.6f},{y:.6f},{int(i >= 600)}\n" for i, (x, y) in enumerate(points)))
        argv = [*command, "--data", str(csv), "--label-col", "-1", "--k", "2",
                "--out", str(tmp_path / "o")]
        script = (
            "import os, sys\n"
            "os.sched_getaffinity = lambda pid: {0}\n"
            "import ecac.cli\n"
            f"assert ecac.cli.main({argv!r}) == 0\n"
            "print(sorted(m for m in ('numpy.random', 'hashlib') if m in sys.modules))\n"
        )
        child = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=child_env, timeout=300,
        )
        assert child.returncode == 0, child.stderr
        assert child.stdout.splitlines()[-1] == "[]"

    def test_cli_loads_no_process_pool_modules(self, tmp_path, child_env):
        # The sweep forks its workers itself: neither the import nor a
        # default-sweep run pays for importing a process pool.
        script = (
            "import sys, ecac.cli\n"
            "def pools():\n"
            "    return sorted(m for m in sys.modules\n"
            "                  if m.split('.')[0] == 'multiprocessing' or m.startswith('concurrent.futures'))\n"
            "print(pools())\n"
            f"assert ecac.cli.main(['run', *{SPIRAL!r}, '--out', {str(tmp_path / 'r')!r}]) == 0\n"
            "print(pools())\n"
        )
        child = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=child_env, check=True,
        )
        lines = child.stdout.splitlines()
        assert (lines[0], lines[-1]) == ("[]", "[]")

    @pytest.mark.parametrize("command", ["run", "ablate"])
    @pytest.mark.parametrize("delta_flag, delta_field", [
        (["--delta", "0.4"], {"delta": 0.4}),
        (["--delta-percentile", "0.03"], {"delta_percentile": 0.03}),
        (["--delta-sweep", "0.01,0.05"], {"delta_sweep": [0.01, 0.05]}),
    ])
    def test_every_flag_reaches_the_config(self, command, delta_flag, delta_field):
        argv = [command, "--data", "a.csv", "--label-col", "-1", "--algo", "dpc",
                "--k", "3", *delta_flag, "--strategy", "global", "--cap", "5",
                "--seed", "7", "--d-c", "0.5", "--max-iter", "9", "--normalize",
                "--out", "o", "--trace"]
        config = _config_from_args(build_parser().parse_args(argv))
        assert config == RunConfig(
            data="a.csv", label_col=-1, algo="dpc", k=3, strategy="global", cap=5,
            seed=7, d_c=0.5, max_iter=9, normalize=True, out="o", **delta_field,
        )

    def test_min_max_normalize(self):
        ds = Dataset(np.array([[0.0, 5.0], [10.0, 5.0], [5.0, 15.0]]))
        scaled = min_max_normalize(ds)
        assert scaled.points.min() == 0.0 and scaled.points.max() == 1.0
        assert scaled.points[:, 1].tolist() == [0.0, 0.0, 1.0]


class TestCmdRun:
    def test_result_roundtrip_and_shared_centers(self, tmp_path):
        config = gen_config(tmp_path)
        payload = cmd_run(config)
        on_disk = json.loads((tmp_path / "out" / "result.json").read_text())
        assert on_disk == payload
        assert payload["baseline"]["center_ids"] == payload["optimized"]["center_ids"]
        for record in payload["sweep"]:
            assert record["center_ids"] == payload["optimized"]["center_ids"]
        restored = ClusteringResult.from_dict(payload["optimized"])
        assert restored.to_dict() == payload["optimized"]

    def test_each_record_is_converted_once(self, tmp_path, monkeypatch):
        # "optimized" is the dict of the first sweep record with the
        # highest NMI, built once with the others, not a second time.
        converted = []
        to_dict = ClusteringResult.to_dict

        def counting(self):
            converted.append(self)
            return to_dict(self)

        monkeypatch.setattr(ClusteringResult, "to_dict", counting)
        payload = cmd_run(gen_config(tmp_path), quiet=True)
        sweep = payload["sweep"]
        assert len(sweep) == len(DEFAULT_SWEEP)
        assert len(converted) == 1 + len(sweep)
        assert len({id(result) for result in converted}) == len(converted)
        nmis = [record["nmi"] for record in sweep]
        assert payload["optimized"] is sweep[nmis.index(max(nmis))]

    def test_determinism_modulo_timings(self, tmp_path):
        a = cmd_run(gen_config(tmp_path / "a"))
        b = cmd_run(gen_config(tmp_path / "b"))
        a["config"].pop("out")
        b["config"].pop("out")
        assert strip_timings(a) == strip_timings(b)

    def test_sweep_deltas_equal_per_fraction_percentiles(self, tmp_path):
        config = gen_config(tmp_path)
        dataset, _ = config.load_dataset()
        payload = cmd_run(config)
        assert [r["delta"] for r in payload["sweep"]] == [
            pairwise_distance_percentile(dataset, p) for p in DEFAULT_SWEEP
        ]

    def test_missing_file_mentions_path(self, tmp_path):
        config_kwargs = {"data": "no/such/file.csv", "k": 2, "algo": "kmeans"}
        config = RunConfig.from_sources(None, dict(config_kwargs, out=str(tmp_path)))
        with pytest.raises(ConfigError, match="no/such/file.csv"):
            cmd_run(config)

    def test_metrics_absent_without_ground_truth(self, tmp_path):
        csv = tmp_path / "plain.csv"
        rng = np.random.default_rng(0)
        csv.write_text("\n".join(f"{x:.4f},{y:.4f}" for x, y in rng.normal(size=(30, 2))))
        config = RunConfig.from_sources(
            None, {"data": str(csv), "k": 2, "out": str(tmp_path / "o")}
        )
        payload = cmd_run(config)
        assert payload["optimized"]["nmi"] is None
        assert payload["optimized"]["ri"] is None
        assert len(payload["sweep"]) == 1  # nothing to rank a sweep by

    def test_trace_dump(self, tmp_path):
        config = gen_config(tmp_path, delta_percentile=0.05)
        cmd_run(config, dump_trace=True)
        lines = (tmp_path / "out" / "trace.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert all(set(r) == {"object", "set", "dis", "covered"} for r in records)
        covered = [r["covered"] for r in records]
        assert covered == sorted(covered)


    def test_result_file_is_one_line_that_parses_back(self, tmp_path):
        # A DPC run with the default sweep: labels, sets and five sweep
        # records, written as one compact JSON line.
        config = RunConfig.from_sources(None, {
            "data": "data/spiral.csv", "label_col": -1, "algo": "dpc", "k": 3,
            "out": str(tmp_path / "o"),
        })
        payload = cmd_run(config, quiet=True)
        text = (tmp_path / "o" / "result.json").read_text(encoding="utf-8")
        assert text.count("\n") == 1 and text.endswith("\n")
        assert json.loads(text) == payload
        assert len(payload["sweep"]) == len(DEFAULT_SWEEP)
        assert all(type(x) is int for x in payload["optimized"]["labels"])

    @pytest.mark.parametrize("command", ["run", "ablate"])
    def test_files_written_in_pieces_are_one_dumps(self, tmp_path, command):
        # The pieces join to the bytes of one json.dumps of the payload,
        # non-ASCII config strings escaped alike; no temporary file stays.
        data = tmp_path / "données-✓.csv"
        data.write_bytes((ROOT / "data" / "spiral.csv").read_bytes())
        out = tmp_path / "résultats"
        config = RunConfig.from_sources(None, {
            "data": str(data), "label_col": -1, "algo": "kmeans", "k": 3, "out": str(out),
        })
        if command == "run":
            payload, name = cmd_run(config, quiet=True), "result.json"
        else:
            payload, name = cmd_ablate(config, ["local", "global"], quiet=True), "ablate.json"
        assert payload["config"]["data"] == str(data)
        want = json.dumps(payload, sort_keys=True) + "\n"
        assert (out / name).read_bytes() == want.encode("utf-8")
        assert sorted(path.name for path in out.iterdir()) == [name]

    def test_a_write_that_fails_partway_leaves_the_previous_file(self, tmp_path, child_env):
        path = tmp_path / "o" / "result.json"
        cli._write_json(path, {"schema_version": 1, "sweep": [{"a": 1}]})
        before = path.read_bytes()
        # A value that cannot be encoded, after a piece was written.
        with pytest.raises(TypeError):
            cli._write_json(path, {"schema_version": 2, "sweep": [{"a": 2}, {"b": object()}]})
        assert path.read_bytes() == before
        # A file-size limit below the new file's size stops the write
        # itself partway, as a full disk would (EFBIG in place of ENOSPC).
        child = subprocess.run([sys.executable, "-c", """
import resource, signal, sys
from pathlib import Path
from ecac.cli import _write_json
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
resource.setrlimit(resource.RLIMIT_FSIZE, (1 << 16, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))
try:
    _write_json(Path(sys.argv[1]), {"sweep": [{"labels": list(range(20_000))}] * 3})
except OSError as exc:
    print(exc.errno)
""", str(path)], capture_output=True, text=True, env=child_env, timeout=60, check=True)
        assert child.stdout.split() == [str(errno.EFBIG)]
        assert path.read_bytes() == before
        assert [p.name for p in path.parent.iterdir()] == ["result.json"]

    def test_a_trace_dump_that_fails_partway_leaves_the_previous_file(self, tmp_path):
        path = tmp_path / "o" / "trace.jsonl"
        cli._write_trace(path, step_columns(([1], [0], [0.5], [3])))
        before = path.read_bytes()
        # The last step's dis cannot be converted, after three slices of
        # steps were written.
        n = 3 * cli._JSON_SLICE + 5
        dis = np.full(n, 0.25, dtype=object)
        dis[-1] = object()
        with pytest.raises(TypeError):
            cli._write_trace(path, (np.arange(n), np.zeros(n, dtype=np.int64), dis, np.arange(n)))
        assert path.read_bytes() == before
        assert [p.name for p in path.parent.iterdir()] == ["trace.jsonl"]

    @pytest.mark.parametrize("length", [0, 1, cli._JSON_SLICE - 1, cli._JSON_SLICE,
                                        cli._JSON_SLICE + 1, 3 * cli._JSON_SLICE + 5])
    def test_trace_lines_are_one_dumps_per_step(self, tmp_path, length):
        # Steps fewer than, as many as and more than one slice: each line
        # is the step's record as json.dumps writes it.
        rng = np.random.default_rng(length)
        steps = (
            rng.permutation(length).astype(np.int64),
            rng.integers(0, 4, length, dtype=np.int64),
            rng.random(length) * 10.0 ** rng.integers(-8, 8, length),
            np.arange(1, length + 1, dtype=np.int64),
        )
        cli._write_trace(tmp_path / "trace.jsonl", steps)
        assert (tmp_path / "trace.jsonl").read_text(encoding="utf-8") == dumps_per_step(steps)

    def test_an_infinite_dis_is_written_as_json_writes_it(self, tmp_path):
        # Coordinates whose squared distances overflow: the fallback steps
        # select at an infinite distance.
        ds = Dataset(np.array([[0.0, 0.0], [1e200, 0.0], [1.0, 0.0], [-1e200, 5.0]]))
        with np.errstate(over="ignore"):
            ext = optimizer.identify_extended_centers(ds, [0], 2.0)
        assert [type(c) for c in ext.steps] == [np.ndarray] * 4
        assert [c.dtype for c in ext.steps] == [np.int64, np.int64, np.float64, np.int64]
        cli._write_trace(tmp_path / "trace.jsonl", ext.steps)
        text = (tmp_path / "trace.jsonl").read_text(encoding="utf-8")
        assert text == dumps_per_step(ext.steps)
        assert text.count('"dis": Infinity') == 2

    def test_a_trace_dump_holds_one_slice_of_records(self, tmp_path):
        # 200,000 steps: a list of every step's record would hold about
        # 53 MB; the dump holds one slice's.
        n = 200_000
        steps = step_columns((np.arange(n)[::-1], np.arange(n) % 5, np.linspace(0.0, 3.0, n), np.arange(1, n + 1)))
        peak = traced_peak_mb(lambda: cli._write_trace(tmp_path / "trace.jsonl", steps))
        assert peak < 1.0
        with (tmp_path / "trace.jsonl").open(encoding="utf-8") as fh:
            assert sum(1 for _ in fh) == n

    def test_a_write_holds_one_record_encoded(self, tmp_path):
        # Five sweep records over 20,000 objects: json.dumps of the whole
        # payload holds a string per value, the pieces one record's.
        records = [
            {"labels": [(7 * i + s) % 3 for i in range(20_000)], "s": 20_000, "delta": 0.5 + s}
            for s in range(5)
        ]
        payload = {"schema_version": 1, "config": {"out": "ü"}, "sweep": records}
        whole = traced_peak_mb(lambda: json.dumps(payload, sort_keys=True))
        pieces = traced_peak_mb(lambda: cli._write_json(tmp_path / "result.json", payload))
        assert pieces < whole / 2

    def test_a_write_holds_a_slice_of_a_record(self, tmp_path):
        # One record of 200,000 labels inside the payload, as in
        # result.json: json.dumps holds a string per label, the pieces
        # one slice's.
        record = {"labels": [(7 * i) % 5 for i in range(200_000)], "s": 200_000, "delta": 0.5}
        payload = {"schema_version": 1, "optimized": record}
        whole = traced_peak_mb(lambda: json.dumps(payload, sort_keys=True))
        pieces = traced_peak_mb(lambda: cli._write_json(tmp_path / "result.json", payload))
        assert pieces < whole / 10
        assert (tmp_path / "result.json").read_text() == json.dumps(payload, sort_keys=True) + "\n"

    @pytest.mark.parametrize("length", [0, 1, cli._JSON_SLICE - 1, cli._JSON_SLICE,
                                        cli._JSON_SLICE + 1, 3 * cli._JSON_SLICE + 5])
    def test_lists_around_one_slice_join_to_one_dumps(self, length):
        # Plain values in lists shorter than, as long as and longer than
        # one slice, at the top and in records and lists of lists; no
        # piece holds more than one slice of them.
        plain = [[i, -0.5 * i, "é✓", None, True, float("nan"), float("-inf")][i % 7] for i in range(length)]
        records = [{"labels": plain, "i": i, "sets": [plain[:3], plain]} for i in range(3)]
        payload = {"labels": plain, "sweep": records, "empty": [[], {}, ()], "mixed": [1, {"a": [2]}]}
        pieces = list(cli._json_pieces(payload))
        assert "".join(pieces) == json.dumps(payload, sort_keys=True) + "\n"
        assert max(piece.count(",") for piece in pieces) <= cli._JSON_SLICE

    def test_trace_records_are_built_only_for_trace_output(self, tmp_path, monkeypatch):
        built = []

        def counted(steps):
            built.append(len(steps[0]))
            return trace_records(steps)

        monkeypatch.setattr(optimizer, "trace_records", counted)
        monkeypatch.setattr(cli, "trace_records", counted)
        argv = ["run", "--data", "data/spiral.csv", "--label-col", "-1", "--k", "3",
                "--out", str(tmp_path / "o")]
        assert main(argv) == 0
        assert built == []
        assert main(argv + ["--trace"]) == 0
        lines = (tmp_path / "o" / "trace.jsonl").read_text(encoding="utf-8").splitlines()
        assert built == [len(lines)] and lines

    def test_dpc_run_samples_pairwise_distances_once(self, tmp_path, monkeypatch):
        # DPC's default cutoff and the requested percentile are the same
        # fraction, which the dataset keeps once it is resolved.
        calls = []

        def counted(points, count):
            calls.append(points.shape[0])
            return smallest_pairwise_distances(points, count)

        monkeypatch.setattr(density, "smallest_pairwise_distances", counted)
        argv = ["run", "--data", "data/spiral.csv", "--label-col", "-1", "--algo", "dpc",
                "--k", "3", "--delta-percentile", "0.02", "--out", str(tmp_path / "o")]
        assert main(argv) == 0
        assert len(calls) == 1


def use_cores(monkeypatch, count: int):
    """Make ``count`` cores look usable to the sweep and to ablate."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def wrap_job(monkeypatch, wrapper):
    """Call ``wrapper(run_optimized, *args, **kwargs)`` for each sweep or
    ablate job."""
    run = cli.run_optimized
    monkeypatch.setattr(cli, "run_optimized", lambda *args, **kwargs: wrapper(run, *args, **kwargs))


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestSweepWorkers:
    @pytest.mark.parametrize("argv", [
        [*SPIRAL, "--algo", "kmeans"],
        [*SPIRAL, "--algo", "dpc"],
        [*JAIN, "--algo", "kmeans"],
        [*JAIN, "--algo", "dpc"],
        [*SPIRAL, "--algo", "kmeans", "--cap", "5"],
    ], ids=["spiral-kmeans", "spiral-dpc", "jain-kmeans", "jain-dpc", "spiral-cap5"])
    def test_outputs_are_identical_on_any_number_of_cores(self, tmp_path, monkeypatch, argv):
        def recording(run, *args, **kwargs):
            with open(tmp_path / "pids", "a", encoding="ascii") as fh:  # O_APPEND
                fh.write(f"{os.getpid()}\n")
            return run(*args, **kwargs)

        wrap_job(monkeypatch, recording)
        outputs = []
        for cores in (1, 2, 4):
            use_cores(monkeypatch, cores)
            (tmp_path / "pids").write_text("")
            out = tmp_path / "out"
            assert main(["run", *argv, "--trace", "--out", str(out)]) == 0
            result = strip_timings(json.loads((out / "result.json").read_text(encoding="utf-8")))
            outputs.append(
                (json.dumps(result, sort_keys=True), (out / "trace.jsonl").read_bytes())
            )
            # One process per core, never more than the sweep's δ values.
            pids = (tmp_path / "pids").read_text().split()
            assert len(pids) == len(DEFAULT_SWEEP)
            assert len(set(pids)) == min(cores, len(DEFAULT_SWEEP))
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
        assert_no_child_left()

    @pytest.mark.parametrize("refused", [(1, 2, 3, 4), (0, 3)])
    def test_a_failing_delta_ends_the_run_as_the_serial_loop_does(
        self, tmp_path, monkeypatch, capsys, refused
    ):
        # On 2 cores the first refused δ falls to a worker (1) or to this
        # process (0), with a later one refused on the other side.
        dataset, _ = RunConfig.from_sources(None, {
            "data": SPIRAL[1], "label_col": -1, "k": 3,
        }).load_dataset()
        deltas = pairwise_distance_percentiles(dataset, DEFAULT_SWEEP)

        def refusing(run, *args, delta, **kwargs):
            if deltas.index(delta) in refused:
                raise ConfigError(f"refused delta {delta!r}")
            return run(*args, delta=delta, **kwargs)

        wrap_job(monkeypatch, refusing)
        out = tmp_path / "out"
        for cores in (1, 2, 4):
            use_cores(monkeypatch, cores)
            assert main(["run", *SPIRAL, "--out", str(out)]) == 2
            assert capsys.readouterr().err == f"error: refused delta {deltas[refused[0]]!r}\n"
            assert not out.exists()
            assert_no_child_left()

    def test_a_worker_that_dies_is_an_error_and_is_reaped(self, tmp_path, monkeypatch, capsys):
        parent = os.getpid()

        def dying(run, *args, **kwargs):
            if os.getpid() != parent:
                os._exit(3)
            return run(*args, **kwargs)

        wrap_job(monkeypatch, dying)
        use_cores(monkeypatch, 2)
        assert main(["run", *SPIRAL, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: sweep worker ") and "(exit status 3)" in err
        assert_no_child_left()

    def test_the_table_is_printed_once(self, tmp_path, child_env):
        # In a fresh interpreter, so a worker that went back up the
        # caller's stack would print a second table and flush it at exit.
        script = (
            "import os, sys\n"
            "os.sched_getaffinity = lambda pid: set(range(4))\n"
            "from ecac.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        child = subprocess.run(
            [sys.executable, "-c", script, "run", *SPIRAL, "--out", str(tmp_path / "o")],
            capture_output=True, text=True, env=child_env, timeout=120,
        )
        assert child.returncode == 0, child.stderr
        assert "Traceback" not in child.stderr
        firsts = [line.split()[0] for line in child.stdout.splitlines()]
        assert firsts == ["dataset:", "sweep:", "NMI", "baseline", "optimized"]

    @pytest.mark.filterwarnings("ignore::ecac.errors.DegenerateEntropyWarning")
    def test_table_columns_stay_apart(self, tmp_path, capsys):
        # One class and k = 2: both scores are 0, and a gain cell reads
        # "0.0000 (n/a: zero baseline)", wider than the default column.
        csv = tmp_path / "two.csv"
        csv.write_text("0,0,0\n1,1,0\n")
        assert main(["run", "--data", str(csv), "--label-col", "-1", "--k", "2",
                     "--out", str(tmp_path / "o")]) == 0
        table = capsys.readouterr().out.splitlines()[2:]
        assert len({len(row) for row in table}) == 1
        assert table[2].endswith(" 0.0000 (n/a: zero baseline) 0.0000 (n/a: zero baseline)")


ABLATE_ARGV = [*SPIRAL, "--algo", "kmeans"]


class TestAblateWorkers:
    @pytest.mark.parametrize("extra", [
        ["--variants", "local,global"],
        ["--variants", "local,global,nodensity,random"],
        ["--variants", "local,global", "--cap", "5"],
    ], ids=["local-global", "probe", "cap5"])
    def test_outputs_are_identical_on_any_number_of_cores(self, tmp_path, monkeypatch, extra):
        parent = os.getpid()

        def recording(run, *args, strategy, **kwargs):
            with open(tmp_path / "calls", "a", encoding="ascii") as fh:  # O_APPEND
                fh.write(f"{os.getpid()} {strategy.kind} {strategy.cap}\n")
            return run(*args, strategy=strategy, **kwargs)

        def recording_probe(dataset, centers, delta, strategy=None, **kwargs):
            strategy = strategy or optimizer.SelectionStrategy()
            with open(tmp_path / "calls", "a", encoding="ascii") as fh:  # O_APPEND
                fh.write(f"{os.getpid()} probe-{strategy.kind} {strategy.cap}\n")
            return identify(dataset, centers, delta, strategy, **kwargs)

        wrap_job(monkeypatch, recording)
        identify = cli.identify_extended_centers
        monkeypatch.setattr(cli, "identify_extended_centers", recording_probe)
        variants = extra[1].split(",")
        probe = "nodensity" in variants and "--cap" not in extra
        outputs = []
        for cores in (1, 2, 4):
            use_cores(monkeypatch, cores)
            (tmp_path / "calls").write_text("")
            out = tmp_path / "out"
            assert main(["ablate", *ABLATE_ARGV, *extra, "--trace", "--out", str(out)]) == 0
            result = strip_timings(json.loads((out / "ablate.json").read_text(encoding="utf-8")))
            traces = [(out / f"trace-{v}.jsonl").read_bytes() for v in variants]
            outputs.append((json.dumps(result, sort_keys=True), traces))
            calls = [line.split() for line in (tmp_path / "calls").read_text().splitlines()]
            # The probe, an uncapped extension only, runs once in this
            # process, before the variants.
            probes = [pid for pid, kind, _ in calls if kind.startswith("probe")]
            assert probes == ([str(parent)] if probe else [])
            assert calls[:len(probes)] == [[pid, "probe-local", "None"] for pid in probes]
            jobs = calls[len(probes):]
            # One process per variant, up to the number of cores.
            assert sorted(kind for _, kind, _ in jobs) == sorted(variants)
            assert len({pid for pid, _, _ in jobs}) == min(cores, len(variants))
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
        assert_no_child_left()

    @pytest.mark.parametrize("refused", [("global", "random"), ("local", "global")])
    def test_a_refused_variant_ends_the_run_as_the_serial_loop_does(
        self, tmp_path, monkeypatch, capsys, refused
    ):
        # On 2 cores the first refused variant falls to a worker (global)
        # or to this process (local), with a later one refused on the
        # other side.
        def refusing(run, *args, strategy, **kwargs):
            if strategy.kind in refused:
                raise ConfigError(f"refused variant {strategy.kind}")
            return run(*args, strategy=strategy, **kwargs)

        wrap_job(monkeypatch, refusing)
        out = tmp_path / "out"
        for cores in (1, 2, 4):
            use_cores(monkeypatch, cores)
            argv = ["ablate", *ABLATE_ARGV, "--variants", "local,global,random", "--out", str(out)]
            assert main(argv) == 2
            assert capsys.readouterr().err == f"error: refused variant {refused[0]}\n"
            assert not out.exists()
            assert_no_child_left()

    def test_a_worker_that_dies_is_an_error_and_is_reaped(self, tmp_path, monkeypatch, capsys):
        parent = os.getpid()

        def dying(run, *args, **kwargs):
            if os.getpid() != parent:
                os._exit(3)
            return run(*args, **kwargs)

        wrap_job(monkeypatch, dying)
        use_cores(monkeypatch, 2)
        assert main(["ablate", *ABLATE_ARGV, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ablate worker ") and "(exit status 3)" in err
        assert not (tmp_path / "out").exists()
        assert_no_child_left()


class TestCmdAblate:
    def test_needs_two_variants(self, tmp_path):
        with pytest.raises(ConfigError):
            cmd_ablate(gen_config(tmp_path), ["local"])
        with pytest.raises(ConfigError, match="local"):
            cmd_ablate(gen_config(tmp_path), ["local", "global", "local"])

    def test_repeated_variant_exits_2(self, tmp_path, capsys):
        argv = ["ablate", "--data", "data/spiral.csv", "--label-col", "-1",
                "--algo", "kmeans", "--k", "3", "--variants", "local,local",
                "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert not (tmp_path / "o").exists()
        assert "local" in capsys.readouterr().err

    def test_variant_table(self, tmp_path):
        payload = cmd_ablate(gen_config(tmp_path), ["local", "global", "random"])
        assert set(payload["variants"]) == {"local", "global", "random"}
        centers = {tuple(r["center_ids"]) for r in payload["variants"].values()}
        assert len(centers) == 1
        deltas = {r["delta"] for r in payload["variants"].values()}
        assert len(deltas) == 1

    def test_parity_cap_applied_for_nodensity(self, tmp_path):
        payload = cmd_ablate(gen_config(tmp_path), ["local", "nodensity"])
        assert payload["cap"] is not None and payload["cap"] >= 1
        for record in payload["variants"].values():
            assert record["cap"] == payload["cap"]
            for group in record["extended_sets"]:
                assert len(group) - 1 <= payload["cap"]

    def test_rejects_sweep(self, tmp_path):
        config = gen_config(tmp_path, delta_sweep=[0.01, 0.02])
        with pytest.raises(ConfigError):
            cmd_ablate(config, ["local", "global"])


class TestCmdPlot:
    def test_svg_deterministic_and_colored(self, tmp_path):
        config = gen_config(tmp_path)
        cmd_run(config)
        result = tmp_path / "out" / "result.json"
        first = cmd_plot(result, "clusters", tmp_path / "a.svg").read_bytes()
        second = cmd_plot(result, "clusters", tmp_path / "b.svg").read_bytes()
        assert first == second
        fills = set(re.findall(rb'fill="(#[0-9a-f]{6})"', first))
        palette_fills = {f for f in fills if f.decode() in PALETTE}
        assert len(palette_fills) == 2

    def test_extended_sets_mode_colors_per_set(self, tmp_path):
        config = gen_config(tmp_path)
        cmd_run(config)
        out = cmd_plot(tmp_path / "out" / "result.json", "extended-sets")
        text = out.read_text()
        fills = {f for f in re.findall(r'fill="(#[0-9a-f]{6})"', text) if f in PALETTE}
        assert len(fills) == 2

    def test_missing_result(self, tmp_path):
        with pytest.raises(MissingResult):
            cmd_plot(tmp_path / "nothing.json", "clusters")

    @pytest.mark.parametrize("fault", ["list", "string", "config", "algorithm"])
    def test_malformed_result(self, tmp_path, fault):
        cmd_run(gen_config(tmp_path), quiet=True)
        result = tmp_path / "out" / "result.json"
        payload = json.loads(result.read_text())
        if fault == "config":
            payload["config"] = ["data.csv"]
        if fault == "algorithm":
            del payload["optimized"]["algorithm"]
        payload = {"list": [payload], "string": "result"}.get(fault, payload)
        result.write_text(json.dumps(payload))
        with pytest.raises(MissingResult, match=re.escape(str(result))):
            cmd_plot(result, "clusters")

    @pytest.mark.parametrize("rows", [100, 300])
    def test_csv_resized_since_run_exits_2(self, tmp_path, capsys, rows):
        ds, gt = generate_gaussian_mixture(2, 150, [[0, 0], [25, 0]], 1.0, seed=3)
        lines = [f"{x},{y},{c}" for (x, y), c in zip(ds.points, gt.labels)]
        csv = tmp_path / "data.csv"
        csv.write_text("\n".join(lines[:200]) + "\n")
        out = tmp_path / "out"
        assert main(["run", "--data", str(csv), "--label-col", "-1", "--algo", "kmeans",
                     "--k", "2", "--delta-percentile", "0.02", "--out", str(out)]) == 0
        csv.write_text("\n".join(lines[:rows]) + "\n")
        for mode in ("clusters", "extended-sets"):
            assert main(["plot", str(out / "result.json"), "--mode", mode]) == 2
            assert f"fit {rows} objects" in capsys.readouterr().err


class TestRenderScatter:
    def test_one_dimensional_rejected(self):
        with pytest.raises(NotPlottable):
            render_scatter(np.zeros((4, 1)), [0] * 4, [0])

    def test_high_dimensional_warns(self):
        pts = np.random.default_rng(0).normal(size=(10, 5))
        with pytest.warns(UserWarning, match="first two"):
            svg = render_scatter(pts, [0] * 10, [0])
        assert svg.startswith("<?xml")

    def test_bad_mode(self):
        with pytest.raises(NotPlottable):
            render_scatter(np.zeros((2, 2)), [0, 0], [0], mode="sideways")

    def test_ids_outside_points_rejected(self):
        with pytest.raises(NotPlottable):
            render_scatter(np.zeros((3, 2)), [0, 0, 0], [3])
        with pytest.raises(NotPlottable):
            render_scatter(np.zeros((3, 2)), [0, 0, 0], [0], "extended-sets", [[0, -1]])

    def test_center_markers_present(self):
        ds, _ = generate_gaussian_mixture(2, 10, [[0, 0], [9, 9]], 1.0, seed=1)
        svg = render_scatter(ds.points, [0] * 10 + [1] * 10, [0, 10])
        assert svg.count('stroke="black"') == 2


class TestMainEntry:
    def test_exit_codes(self, tmp_path, capsys):
        assert main(["plot", str(tmp_path / "missing.json")]) == 2
        err = capsys.readouterr().err
        assert "missing.json" in err

    @pytest.mark.parametrize("algo", ["kmeans", "dpc"])
    def test_overflowing_distances_run_without_a_traceback(self, tmp_path, algo, child_env):
        # Every pairwise distance overflows to inf, so the default delta
        # is inf; the percentile must not index past its kept distances.
        csv = tmp_path / "overflow.csv"
        csv.write_text("1e308,0,0\n-1e308,0,1\n0,0,0\n")
        child = subprocess.run(
            [sys.executable, "-m", "ecac", "run", "--data", str(csv), "--label-col", "-1",
             "--algo", algo, "--k", "2", "--out", str(tmp_path / "o")],
            capture_output=True, text=True, env=child_env, timeout=120,
        )
        assert "Traceback" not in child.stderr
        assert child.returncode == 0, child.stderr
        result = json.loads((tmp_path / "o" / "result.json").read_text(encoding="utf-8"))
        assert result["optimized"]["delta"] == np.inf

    def test_run_via_argv(self, tmp_path):
        code = main([
            "run", "--data", "data/spiral.csv", "--label-col", "-1",
            "--algo", "kmeans", "--k", "3", "--seed", "0",
            "--delta-percentile", "0.01",
            "--out", str(tmp_path / "o"),
        ])
        assert code == 0
        assert (tmp_path / "o" / "result.json").exists()


JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-(2**70), 2**70), st.floats(), st.text(max_size=6),
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=7),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=4), children, max_size=5),
    ),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(payload=st.dictionaries(st.text(max_size=4), JSON_VALUES, max_size=5),
       slice_items=st.sampled_from([1, 2, 3, cli._JSON_SLICE]))
def test_json_pieces_join_to_one_dumps(payload, slice_items):
    # Nested dicts, lists and tuples, empty ones too, of non-ASCII
    # strings, big integers and NaN and infinite floats; slices of a few
    # items cut short lists into many.
    with mock.patch.object(cli, "_JSON_SLICE", slice_items):
        assert "".join(cli._json_pieces(payload)) == json.dumps(payload, sort_keys=True) + "\n"
