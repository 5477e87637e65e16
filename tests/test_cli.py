import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import mrsi_cs
from mrsi_cs import ConfigError, DivergenceError, MrsiCsError, ParameterError, ScheduleError, ShapeError
from mrsi_cs import cli
from mrsi_cs.cli import _write_csv, main
from mrsi_cs.configio import write_json, write_schedule
from mrsi_cs.manifest import sha256_file
from mrsi_cs.model import SamplePoint, SamplingSchedule
from mrsi_cs.mrst import read_tensor, write_tensor
from mrsi_cs.selection import COARSE_GRID
from mrsi_cs.solver import ResidualLog, SolverConfig
from conftest import strict_json

TINY_PHANTOM = {
    "geometry": {
        "spatial_dims": [2, 2],
        "spectral_evolution_points": 2,
        "readout_points": 4,
        "frame_interval_s": 4.0,
    },
    "n_frames": 12,
    "noise_sigma": 0.01,
    "rng_seed": 77,
    "substances": [
        {
            "label": "glucose",
            "region": [[0, 0], [1, 0]],
            "profile": {"ramp": {"rate": 0.1, "cap": 1.0, "start_frame": 0}},
            "peaks": [{"center": [0.0, 1.0], "width": 1.0, "amplitude": 1.0}],
        }
    ],
}

TINY_DESIGN = {
    "n_points": 10,
    "dims": [2, 2, 2],
    "skip": 0,
    "gaps": [[4, 2]],
    "frame_interval_s": 4.0,
}


@pytest.fixture
def runner():
    return CliRunner()


def run_ok(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return strict_json(result.output.strip().splitlines()[-1])


def write_config(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def build_pipeline(runner, tmp_path, iters=10, phantom=TINY_PHANTOM):
    config = write_config(tmp_path / "phantom.json", phantom)
    design = write_config(tmp_path / "design.json", TINY_DESIGN)
    phantom_out = run_ok(runner, ["phantom", "--config", config, "--out", str(tmp_path / "ph")])
    design_out = run_ok(runner, ["design", "--config", design, "--out", str(tmp_path / "de")])
    acquire_out = run_ok(
        runner,
        [
            "acquire",
            "--config", config,
            "--schedule", design_out["schedule"],
            "--truth", phantom_out["truth"],
            "--base", phantom_out["base"],
            "--out", str(tmp_path / "ac"),
        ],
    )
    recon_out = run_ok(
        runner,
        [
            "reconstruct",
            "--config", config,
            "--signals", acquire_out["signals"],
            "--schedule", design_out["schedule"],
            "--base", phantom_out["base"],
            "--out", str(tmp_path / "re"),
            "--iters", str(iters),
            "--lambda-x", "0.001",
            "--lambda-w1", "0.01",
            "--lambda-w2", "0.01",
        ],
    )
    return config, phantom_out, design_out, acquire_out, recon_out


class TestPhantomCommand:
    def test_writes_outputs_and_manifest(self, runner, tmp_path):
        config = write_config(tmp_path / "phantom.json", TINY_PHANTOM)
        out = run_ok(runner, ["phantom", "--config", config, "--out", str(tmp_path / "o")])
        truth = read_tensor(out["truth"])
        assert truth.shape == (12, 2, 2, 1)
        base = read_tensor(out["base"])
        assert base.shape == (1, 2, 4)
        manifest = strict_json((tmp_path / "o" / "manifest.json").read_text())
        assert {entry["path"] for entry in manifest["outputs"]} == {
            out["truth"],
            out["base"],
        }
        for entry in manifest["outputs"]:
            assert entry["sha256"] == sha256_file(entry["path"])

    def test_missing_field_exits_2_with_path(self, runner, tmp_path):
        broken = dict(TINY_PHANTOM)
        broken = json.loads(json.dumps(broken))
        del broken["substances"][0]["profile"]
        config = write_config(tmp_path / "phantom.json", broken)
        result = runner.invoke(main, ["phantom", "--config", config, "--out", str(tmp_path / "o")])
        assert result.exit_code == 2
        assert "substances[0].profile" in result.output

    def test_deterministic_outputs(self, runner, tmp_path):
        config = write_config(tmp_path / "phantom.json", TINY_PHANTOM)
        a = run_ok(runner, ["phantom", "--config", config, "--out", str(tmp_path / "a")])
        b = run_ok(runner, ["phantom", "--config", config, "--out", str(tmp_path / "b")])
        assert sha256_file(a["truth"]) == sha256_file(b["truth"])
        assert sha256_file(a["base"]) == sha256_file(b["base"])


class TestDesignCommand:
    def test_schedule_counts(self, runner, tmp_path):
        design = write_config(tmp_path / "design.json", TINY_DESIGN)
        out = run_ok(runner, ["design", "--config", design, "--out", str(tmp_path / "d")])
        assert out["n_frames"] == 12
        assert out["n_acquired"] == 10
        doc = strict_json(Path(out["schedule"]).read_text())
        assert doc["M"] == 12
        gaps = [e for e in doc["frames"] if e.get("gap")]
        assert [e["m"] for e in gaps] == [4, 5]

    @pytest.mark.parametrize(
        "design, digest",
        [
            (
                {"n_points": 256, "dims": [16, 8, 16], "skip": 0, "frame_interval_s": 4.0},
                "4a8a32e2144d4709669fd3a210de2a521233ca1a59e34d1807634dd4365a6ab0",
            ),
            (
                {"n_points": 32, "dims": [4, 4, 4], "skip": 0, "frame_interval_s": 4.0},
                "c72f6270ddbedd2e641537b66511f4c130b3a9e2708c8dace2050ccc7586fe98",
            ),
        ],
        ids=["recon-exp3", "cv-coarse"],
    )
    def test_benchmark_schedules_are_pinned(self, runner, tmp_path, design, digest):
        config = write_config(tmp_path / "design.json", design)
        out = run_ok(runner, ["design", "--config", config, "--out", str(tmp_path / "d")])
        assert sha256_file(out["schedule"]) == digest

    @pytest.mark.parametrize(
        "change",
        [{"skip": 2**30 - 4}, {"dims": [2] * 9}, {"frame_interval_s": float("inf")}],
        ids=["past-sequence-end", "too-many-axes", "infinite-interval"],
    )
    def test_unsupported_request_exits_2_before_writing(self, runner, tmp_path, change):
        config = write_config(tmp_path / "design.json", {**TINY_DESIGN, **change})
        out = tmp_path / "d"
        assert_clean_exit(runner.invoke(main, ["design", "--config", config, "--out", str(out)]), 2)
        assert not out.exists()


class TestAcquireCommand:
    def test_signal_length(self, runner, tmp_path):
        _, _, design_out, acquire_out, _ = build_pipeline(runner, tmp_path)
        signals = read_tensor(acquire_out["signals"])
        assert signals.shape == (10 * 4,)
        assert signals.dtype == np.complex128

    def test_shape_mismatch_exits_3(self, runner, tmp_path):
        config = write_config(tmp_path / "phantom.json", TINY_PHANTOM)
        design = write_config(tmp_path / "design.json", TINY_DESIGN)
        phantom_out = run_ok(runner, ["phantom", "--config", config, "--out", str(tmp_path / "p")])
        design_out = run_ok(runner, ["design", "--config", design, "--out", str(tmp_path / "d")])
        bad_truth = tmp_path / "bad.mrst"
        write_tensor(bad_truth, np.zeros((3, 2, 2, 1)))
        result = runner.invoke(
            main,
            [
                "acquire",
                "--config", config,
                "--schedule", design_out["schedule"],
                "--truth", str(bad_truth),
                "--base", phantom_out["base"],
                "--out", str(tmp_path / "a"),
            ],
        )
        assert result.exit_code == 3

    def test_complex_truth_exits_3_before_writing(self, runner, tmp_path):
        config = write_config(tmp_path / "phantom.json", TINY_PHANTOM)
        design = write_config(tmp_path / "design.json", TINY_DESIGN)
        phantom_out = run_ok(runner, ["phantom", "--config", config, "--out", str(tmp_path / "p")])
        design_out = run_ok(runner, ["design", "--config", design, "--out", str(tmp_path / "d")])
        truth = read_tensor(phantom_out["truth"])
        complex_truth = tmp_path / "complex.mrst"
        write_tensor(complex_truth, truth + 1j * truth)
        result = runner.invoke(
            main,
            [
                "acquire",
                "--config", config,
                "--schedule", design_out["schedule"],
                "--truth", str(complex_truth),
                "--base", phantom_out["base"],
                "--out", str(tmp_path / "a"),
            ],
        )
        assert_clean_exit(result, 3)
        assert "real" in result.output
        assert not (tmp_path / "a").exists()

    def test_seed_option_replaces_the_configured_seed(self, runner, tmp_path):
        config, phantom_out, design_out, acquire_out, _ = build_pipeline(runner, tmp_path, iters=1)
        assert TINY_PHANTOM["noise_sigma"] > 0 and TINY_PHANTOM["rng_seed"] != 5
        run_ok(runner, ["phantom", "--config", config, "--out", str(tmp_path / "ph5"), "--seed", "5"])
        seeded = run_ok(
            runner,
            ["acquire", "--config", config, "--schedule", design_out["schedule"], "--truth", phantom_out["truth"],
             "--base", phantom_out["base"], "--out", str(tmp_path / "ac5"), "--seed", "5"],
        )
        for outdir in ("ph5", "ac5"):
            assert strict_json((tmp_path / outdir / "manifest.json").read_text())["seeds"]["rng_seed"] == 5
        assert strict_json((tmp_path / "ac" / "manifest.json").read_text())["seeds"]["rng_seed"] == 77
        assert not np.array_equal(read_tensor(seeded["signals"]), read_tensor(acquire_out["signals"]))


class TestReconstructCommand:
    def test_products(self, runner, tmp_path):
        _, _, _, _, recon_out = build_pipeline(runner, tmp_path, iters=10)
        recon = read_tensor(recon_out["recon"])
        assert recon.shape == (12, 2, 2, 1)
        lines = Path(recon_out["residuals"]).read_text().strip().splitlines()
        assert lines[0] == "iteration,rms_x_minus_z,rms_z_delta"
        assert len(lines) == 11

    def test_residual_csv_holds_plain_numbers(self, runner, tmp_path, monkeypatch):
        solve_once, logs = cli.solve, []

        def solve(*args):
            estimate, log = solve_once(*args)
            logs.append(log)
            return estimate, log

        monkeypatch.setattr(cli, "solve", solve)
        _, _, _, _, recon_out = build_pipeline(runner, tmp_path, iters=4)
        (log,) = logs
        assert all(type(v) is float for v in log.rms_x_minus_z + log.rms_z_delta)
        lines = Path(recon_out["residuals"]).read_text().splitlines()
        assert lines[0] == "iteration,rms_x_minus_z,rms_z_delta"
        rows = zip(log.rms_x_minus_z, log.rms_z_delta)
        assert lines[1:] == [f"{i},{a!r},{b!r}" for i, (a, b) in enumerate(rows, start=1)]
        assert all(float(v) >= 0 for line in lines[1:] for v in line.split(",")[1:])

    def test_residual_csv_converts_numpy_scalars(self, runner, tmp_path, monkeypatch):
        solve_once = cli.solve
        log = ResidualLog(rms_x_minus_z=[np.float64(0.5)], rms_z_delta=[np.float64(0.25)])
        monkeypatch.setattr(cli, "solve", lambda *args: (solve_once(*args)[0], log))
        _, _, _, _, recon_out = build_pipeline(runner, tmp_path, iters=4)
        assert Path(recon_out["residuals"]).read_text().splitlines()[1:] == ["1,0.5,0.25"]

    def test_divergence_exits_4(self, runner, tmp_path):
        config, phantom_out, design_out, acquire_out, _ = build_pipeline(runner, tmp_path)
        # finite, so it is read, but its normal matrix overflows
        poisoned = read_tensor(phantom_out["base"]) * 1e200
        bad_base = tmp_path / "bad_base.mrst"
        write_tensor(bad_base, poisoned)
        result = runner.invoke(
            main,
            [
                "reconstruct",
                "--config", config,
                "--signals", acquire_out["signals"],
                "--schedule", design_out["schedule"],
                "--base", str(bad_base),
                "--out", str(tmp_path / "r2"),
                "--iters", "5",
            ],
        )
        assert result.exit_code == 4

    def test_divergence_warnings_follow_the_log_level(self, runner, tmp_path):
        # the overflowing base above makes numpy warn before the solver gives up
        config, phantom_out, design_out, acquire_out, _ = build_pipeline(runner, tmp_path)
        bad_base = tmp_path / "bad_base.mrst"
        write_tensor(bad_base, read_tensor(phantom_out["base"]) * 1e200)
        src = str(Path(mrsi_cs.__file__).resolve().parents[1])

        def reconstruct(level):
            args = reconstruct_args(
                config, acquire_out["signals"], design_out["schedule"], str(bad_base), str(tmp_path / level)
            )
            env = {**os.environ, "PYTHONPATH": src, "PYTHONWARNINGS": "default", "MRSI_CS_LOG": level}
            done = subprocess.run([sys.executable, "-m", "mrsi_cs.cli", *args], env=env, capture_output=True, text=True)
            assert done.returncode == 4, done.stderr
            assert "DivergenceError" in done.stderr
            return done.stderr

        assert "RuntimeWarning" not in reconstruct("error")
        assert "WARNING py.warnings" in reconstruct("info")

    def test_singular_normal_factor_exits_4(self, runner, tmp_path):
        # finite base spectra, huge enough that a point sampled twice rounds the factor's K to a singular matrix
        config = write_config(tmp_path / "phantom.json", TINY_PHANTOM)
        rng = np.random.default_rng(5)
        base = tmp_path / "base.mrst"
        write_tensor(base, (rng.standard_normal((1, 2, 4)) + 1j * rng.standard_normal((1, 2, 4))) * 1e120)
        point = SamplePoint(2, (1, 2))
        schedule = tmp_path / "schedule.json"
        write_schedule(schedule, SamplingSchedule(frames=((point, point), None)))
        signals = tmp_path / "signals.mrst"
        write_tensor(signals, np.ones(8, dtype=complex))
        result = runner.invoke(
            main, reconstruct_args(config, str(signals), str(schedule), str(base), str(tmp_path / "r"))
        )
        assert_clean_exit(result, 4)
        assert "singular" in result.output


def reconstruct_args(config, signals, schedule, base, out):
    return [
        "reconstruct",
        "--config", config,
        "--signals", signals,
        "--schedule", schedule,
        "--base", base,
        "--out", out,
        "--iters", "3",
    ]


def assert_clean_exit(result, code):
    assert result.exit_code == code, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output


class TestInputBoundary:
    @pytest.mark.parametrize("option, value", [("--lambda-x", "nan"), ("--lambda-w1", "inf")])
    def test_non_finite_weight_exits_2(self, runner, tmp_path, option, value):
        config, phantom_out, design_out, acquire_out, _ = build_pipeline(runner, tmp_path, iters=1)
        args = reconstruct_args(
            config, acquire_out["signals"], design_out["schedule"], phantom_out["base"],
            str(tmp_path / "r2"),
        )
        result = runner.invoke(main, args + [option, value])
        assert_clean_exit(result, 2)
        assert "finite" in result.output

    def test_truncated_signals_header_exits_3(self, runner, tmp_path):
        config, phantom_out, design_out, acquire_out, _ = build_pipeline(runner, tmp_path, iters=1)
        short = tmp_path / "short.mrst"
        short.write_bytes(Path(acquire_out["signals"]).read_bytes()[:10])
        args = reconstruct_args(
            config, str(short), design_out["schedule"], phantom_out["base"], str(tmp_path / "r2")
        )
        assert_clean_exit(runner.invoke(main, args), 3)

    @pytest.mark.parametrize("owner, key", [("entry", "m"), ("point", "spectral"), ("point", "k")])
    def test_schedule_entry_missing_field_exits_2(self, runner, tmp_path, owner, key):
        config, phantom_out, design_out, acquire_out, _ = build_pipeline(runner, tmp_path, iters=1)
        doc = strict_json(Path(design_out["schedule"]).read_text())
        entry = next(e for e in doc["frames"] if "point" in e)
        del (entry if owner == "entry" else entry["point"])[key]
        bad = tmp_path / "bad_schedule.json"
        bad.write_text(json.dumps(doc))
        args = reconstruct_args(
            config, acquire_out["signals"], str(bad), phantom_out["base"], str(tmp_path / "r2")
        )
        assert_clean_exit(runner.invoke(main, args), 2)

    @pytest.mark.parametrize("form", ["gap-holding-a-point", "gap-after-points", "gap-before-points"])
    def test_self_contradicting_schedule_exits_2_before_writing(self, runner, tmp_path, form):
        config, phantom_out, design_out, acquire_out, _ = build_pipeline(runner, tmp_path, iters=1)
        doc = strict_json(Path(design_out["schedule"]).read_text())
        frames = doc["frames"]
        index = next(i for i, e in enumerate(frames) if "point" in e)
        gap = {"m": frames[index]["m"], "gap": True}
        if form == "gap-holding-a-point":
            frames[index]["gap"] = True
        elif form == "gap-after-points":
            frames.append(gap)
            index = len(frames) - 1
        else:
            frames.insert(0, gap)
            index += 1
        bad = tmp_path / "bad_schedule.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "r2"
        args = reconstruct_args(config, acquire_out["signals"], str(bad), phantom_out["base"], str(out))
        result = runner.invoke(main, args)
        assert_clean_exit(result, 2)
        assert f"schedule.frames[{index}]" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("command", ["phantom", "acquire"])
    @pytest.mark.parametrize(
        "path, value",
        [
            (("noise_sigma",), float("nan")),
            (("substances", 0, "profile", "ramp", "rate"), float("nan")),
            (("substances", 0, "profile"), {"constant": {"level": float("inf")}}),
            (("substances", 0, "peaks", 0, "amplitude"), float("inf")),
            (("substances", 0, "peaks", 0, "center"), [float("nan"), 1.0]),
        ],
        ids=["nan-noise", "nan-ramp-rate", "inf-level", "inf-amplitude", "nan-center"],
    )
    def test_non_finite_phantom_value_exits_2_before_writing(self, runner, tmp_path, command, path, value):
        good = write_config(tmp_path / "phantom.json", TINY_PHANTOM)
        doc = json.loads(json.dumps(TINY_PHANTOM))
        owner = doc
        for key in path[:-1]:
            owner = owner[key]
        owner[path[-1]] = value
        bad = write_config(tmp_path / "bad.json", doc)
        out = tmp_path / "out"
        if command == "phantom":
            args = ["phantom", "--config", bad, "--out", str(out)]
        else:
            phantom_out = run_ok(runner, ["phantom", "--config", good, "--out", str(tmp_path / "p")])
            design = write_config(tmp_path / "design.json", TINY_DESIGN)
            design_out = run_ok(runner, ["design", "--config", design, "--out", str(tmp_path / "d")])
            args = ["acquire", "--config", bad, "--schedule", design_out["schedule"],
                    "--truth", phantom_out["truth"], "--base", phantom_out["base"], "--out", str(out)]
        assert_clean_exit(runner.invoke(main, args), 2)
        assert not out.exists()

    def test_zero_upsample_exits_2_before_writing(self, runner, tmp_path):
        config = write_config(tmp_path / "phantom.json", TINY_PHANTOM)
        phantom_out = run_ok(runner, ["phantom", "--config", config, "--out", str(tmp_path / "p")])
        out = tmp_path / "ev"
        args = ["evaluate", "--recon", phantom_out["truth"], "--truth", phantom_out["truth"],
                "--out", str(out), "--upsample", "0"]
        assert_clean_exit(runner.invoke(main, args), 2)
        assert not out.exists()

    def test_negative_threads_exits_2_before_writing(self, runner, tmp_path):
        config, phantom_out, design_out, acquire_out, _ = build_pipeline(runner, tmp_path, iters=1)
        out = tmp_path / "cv"
        args = reconstruct_args(
            config, acquire_out["signals"], design_out["schedule"], phantom_out["base"], str(out)
        )
        args[0] = "cv"
        assert_clean_exit(runner.invoke(main, args + ["--threads", "-3"]), 2)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["phantom", "reconstruct"])
    def test_file_that_is_not_utf8_exits_2_before_writing(self, runner, tmp_path, command):
        config, phantom_out, design_out, acquire_out, _ = build_pipeline(runner, tmp_path, iters=1)
        # UTF-16 with its byte-order mark: the file starts with the bytes ff fe
        source = config if command == "phantom" else design_out["schedule"]
        bad = tmp_path / "utf16.json"
        bad.write_bytes(b"\xff\xfe" + Path(source).read_text().encode("utf-16-le"))
        out = tmp_path / "out"
        if command == "phantom":
            args = ["phantom", "--config", str(bad), "--out", str(out)]
        else:
            args = reconstruct_args(config, acquire_out["signals"], str(bad), phantom_out["base"], str(out))
        result = runner.invoke(main, args)
        assert_clean_exit(result, 2)
        assert "utf16.json" in result.output
        assert not out.exists()

    def test_integer_past_the_digit_limit_exits_2_before_writing(self, runner, tmp_path):
        # Python refuses to convert an integer literal of more than 4 300 digits
        config = tmp_path / "digits.json"
        config.write_text(json.dumps(TINY_PHANTOM).replace('"n_frames": 12', '"n_frames": ' + "9" * 5000))
        out = tmp_path / "out"
        result = runner.invoke(main, ["phantom", "--config", str(config), "--out", str(out)])
        assert_clean_exit(result, 2)
        assert "digits.json" in result.output
        assert not out.exists()

    def test_sizes_beyond_memory_exit_2_before_writing(self, runner, tmp_path):
        # 10**15 frames ask numpy for 7 PiB, more than any address space holds, so it refuses at once
        config = write_config(tmp_path / "phantom.json", {**TINY_PHANTOM, "n_frames": 10**15})
        out = tmp_path / "out"
        result = runner.invoke(main, ["phantom", "--config", config, "--out", str(out)])
        assert_clean_exit(result, 2)
        assert "do not fit in memory" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("command", ["acquire", "reconstruct", "cv"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_base_spectra_exit_3_before_writing(self, runner, tmp_path, command, value):
        config, phantom_out, design_out, acquire_out, _ = build_pipeline(runner, tmp_path, iters=1)
        spectra = read_tensor(phantom_out["base"])
        spectra[0, 1, 2] = value
        bad = tmp_path / "bad_base.mrst"
        write_tensor(bad, spectra)
        out = tmp_path / "out"
        if command == "acquire":
            args = ["acquire", "--config", config, "--schedule", design_out["schedule"],
                    "--truth", phantom_out["truth"], "--base", str(bad), "--out", str(out)]
        else:
            args = reconstruct_args(config, acquire_out["signals"], design_out["schedule"], str(bad), str(out))
            args[0] = command
        result = runner.invoke(main, args)
        assert_clean_exit(result, 3)
        assert "base spectra contain non-finite entries" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("command", ["phantom", "reconstruct"])
    @pytest.mark.parametrize("depth", [40, 200_000], ids=["past-the-bound", "past-the-decoder"])
    def test_over_deep_json_exits_2_before_writing(self, runner, tmp_path, command, depth):
        # 200 000 levels overflow the decoder's recursion; 40 parse, and are refused by the depth bound
        config, phantom_out, design_out, acquire_out, _ = build_pipeline(runner, tmp_path, iters=1)
        source = config if command == "phantom" else design_out["schedule"]
        bad = tmp_path / "deep.json"
        bad.write_text(Path(source).read_text().rstrip()[:-1] + ', "a": ' + "[" * depth + "]" * depth + "}")
        out = tmp_path / "out"
        if command == "phantom":
            args = ["phantom", "--config", str(bad), "--out", str(out)]
        else:
            args = reconstruct_args(config, acquire_out["signals"], str(bad), phantom_out["base"], str(out))
        result = runner.invoke(main, args)
        assert_clean_exit(result, 2)
        assert "deep.json" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("damage", ["nan", "missing-sample"])
    def test_damaged_signals_exit_3_before_writing(self, runner, tmp_path, damage):
        config, phantom_out, design_out, acquire_out, _ = build_pipeline(runner, tmp_path, iters=1)
        vector = read_tensor(acquire_out["signals"])
        if damage == "nan":
            vector[3] = complex(np.nan, 0.0)
        else:
            vector = vector[:-1]
        bad = tmp_path / "bad.mrst"
        write_tensor(bad, vector)
        out = tmp_path / "r2"
        args = reconstruct_args(config, str(bad), design_out["schedule"], phantom_out["base"], str(out))
        result = runner.invoke(main, args)
        assert_clean_exit(result, 3)
        assert ("non-finite" if damage == "nan" else "samples") in result.output
        assert not out.exists()


TWO_SUBSTANCES = {
    **TINY_PHANTOM,
    "substances": [
        TINY_PHANTOM["substances"][0],
        {**TINY_PHANTOM["substances"][0], "label": "lactate", "region": [[1, 1]]},
    ],
}


class TestSubstanceLabels:
    """A label names evaluate's snapshot files, so it must be one file name, used once."""

    FORMS = {  # the two labels, and the index of the substance the error names
        "repeated": (("glucose", "glucose"), 1),
        "empty": (("glucose", ""), 1),
        "dot": ((".", "lactate"), 0),
        "dot-dot": (("glucose", ".."), 1),
        "slash": (("a/b", "lactate"), 0),
        "backslash": (("glucose", "a\\b"), 1),
        "nul": (("glucose", "a\0b"), 1),
        "too-long": (("glucose", "\u00e9" * 113), 1),  # 226 bytes in UTF-8, 113 characters
        "not-utf-8": (("\ud800", "lactate"), 0),  # a lone surrogate
    }

    @staticmethod
    def labelled(tmp_path, labels):
        doc = json.loads(json.dumps(TWO_SUBSTANCES))
        for sub, label in zip(doc["substances"], labels):
            sub["label"] = label
        return write_config(tmp_path / "labelled.json", doc)

    @pytest.mark.parametrize("form", FORMS)
    def test_phantom_exits_2_before_writing(self, runner, tmp_path, form):
        labels, index = self.FORMS[form]
        out = tmp_path / "ph"
        result = runner.invoke(main, ["phantom", "--config", self.labelled(tmp_path, labels), "--out", str(out)])
        assert_clean_exit(result, 2)
        assert f"substances[{index}].label" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("form", FORMS)
    def test_evaluate_config_exits_2_before_writing(self, runner, tmp_path, form):
        good = write_config(tmp_path / "good.json", TWO_SUBSTANCES)
        phantom_out = run_ok(runner, ["phantom", "--config", good, "--out", str(tmp_path / "ph")])
        labels, index = self.FORMS[form]
        out = tmp_path / "ev"
        result = runner.invoke(
            main,
            ["evaluate", "--recon", phantom_out["truth"], "--truth", phantom_out["truth"],
             "--out", str(out), "--config", self.labelled(tmp_path, labels)],
        )
        assert_clean_exit(result, 2)
        assert f"substances[{index}].label" in result.output
        assert not out.exists()

    def test_label_of_the_byte_limit_names_its_snapshots(self, runner, tmp_path):
        label = "\u00e9" * 112 + "x"  # 225 bytes in UTF-8
        config = self.labelled(tmp_path, ("glucose", label))
        phantom_out = run_ok(runner, ["phantom", "--config", config, "--out", str(tmp_path / "ph")])
        out = tmp_path / "ev"
        run_ok(
            runner,
            ["evaluate", "--recon", phantom_out["truth"], "--truth", phantom_out["truth"],
             "--out", str(out), "--config", config],
        )
        assert (out / "snapshots" / f"{label}_frame0000.pgm").exists()


class TestExitCodes:
    @pytest.mark.parametrize(
        "error, code",
        [
            (MrsiCsError("injected"), 1),
            (ConfigError("injected"), 2),
            (ParameterError("injected"), 2),
            (ShapeError("injected"), 3),
            (ScheduleError("injected"), 3),
            (DivergenceError("injected", iteration=1), 4),
        ],
        ids=["package", "config", "parameter", "shape", "schedule", "divergence"],
    )
    def test_package_error_exits_with_its_documented_code(self, runner, tmp_path, monkeypatch, error, code):
        def fail(config):
            raise error

        monkeypatch.setattr("mrsi_cs.cli.make_phantom", fail)
        config = write_config(tmp_path / "phantom.json", TINY_PHANTOM)
        out = tmp_path / "out"
        result = runner.invoke(main, ["phantom", "--config", config, "--out", str(out)])
        assert_clean_exit(result, code)
        assert f"{type(error).__name__}: injected" in result.output
        assert not out.exists()


def replaced(doc, path, value):
    """A copy of ``doc`` with the field at ``path`` (keys and list indices) set to ``value``.

    An empty path replaces the whole document.
    """
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    owner = doc
    for key in path[:-1]:
        owner = owner[key]
    owner[path[-1]] = value
    return doc


class TestTypedFields:
    """Every config and schedule field is read with its JSON type: a malformed one exits 2, naming it."""

    @staticmethod
    def invoke(runner, tmp_path, command, document, path, value):
        """Run ``command`` on the tiny pipeline's inputs with one field of one document replaced."""
        config, phantom_out, design_out, acquire_out, _ = build_pipeline(runner, tmp_path, iters=1)
        docs = {
            "phantom": TINY_PHANTOM,
            "design": TINY_DESIGN,
            "schedule": strict_json(Path(design_out["schedule"]).read_text()),
        }
        bad = write_config(tmp_path / "bad.json", replaced(docs[document], path, value))
        out = tmp_path / "out"
        if command in ("phantom", "design"):
            args = [command, "--config", bad, "--out", str(out)]
        elif command == "acquire":
            args = ["acquire", "--config", bad, "--schedule", design_out["schedule"],
                    "--truth", phantom_out["truth"], "--base", phantom_out["base"], "--out", str(out)]
        else:
            args = reconstruct_args(
                bad if document == "phantom" else config, acquire_out["signals"],
                bad if document == "schedule" else design_out["schedule"], phantom_out["base"], str(out),
            )
            args[0] = command
        result = runner.invoke(main, args)
        assert_clean_exit(result, 2)
        assert not out.exists()
        return result.output

    @pytest.mark.parametrize(
        "command, document, path, value, field",
        [
            ("phantom", "phantom", ("substances",), [5], "substances[0]"),
            ("reconstruct", "phantom", ("solver",), [1], "solver"),
            ("cv", "phantom", ("solver",), "ab", "solver"),
            ("reconstruct", "schedule", ("M",), 10**10, "schedule.M"),
            ("acquire", "phantom", ("rng_seed",), -1, "rng_seed"),
        ],
        ids=[
            "substance-not-object", "solver-list", "solver-string", "schedule-count-beyond-entries",
            "negative-seed",
        ],
    )
    def test_value_that_raised_a_traceback_exits_2(self, runner, tmp_path, command, document, path, value, field):
        assert field in self.invoke(runner, tmp_path, command, document, path, value)

    @pytest.mark.parametrize(
        "command, document, path, value, field",
        [
            ("phantom", "phantom", ("n_frames",), 12.9, "n_frames"),
            ("phantom", "phantom", ("geometry", "spatial_dims"), "22", "geometry.spatial_dims"),
            ("phantom", "phantom", ("geometry", "spectral_evolution_points"), True,
             "geometry.spectral_evolution_points"),
            ("phantom", "phantom", ("substances", 0, "region", 1), [1.5, 0], "substances[0].region[1][0]"),
            ("phantom", "phantom", ("substances", 0, "label"), None, "substances[0].label"),
            ("design", "design", ("psi",), "0.5", "psi"),
            ("design", "design", ("n_points",), 10.6, "n_points"),
            ("design", "design", ("dims",), [2.2, 2, 2], "dims[0]"),
            ("design", "design", ("skip",), 1.5, "skip"),
            ("reconstruct", "phantom", ("solver",), {"lambda_x": True}, "solver.lambda_x"),
            ("reconstruct", "schedule", ("M",), 12.5, "schedule.M"),
            ("reconstruct", "schedule", ("frames", 0, "point", "spectral"), 1.9,
             "schedule.frames[0].point.spectral"),
            ("reconstruct", "schedule", ("frames", 4), {"m": 5, "gap": True}, "frames [4]"),
        ],
        ids=[
            "fractional-frames", "digit-string-dims", "boolean-count", "fractional-voxel", "null-label",
            "string-psi", "fractional-points", "fractional-dims", "fractional-skip", "boolean-weight",
            "fractional-schedule-count", "fractional-spectral-index", "unlisted-frame",
        ],
    )
    def test_value_that_was_misread_exits_2(self, runner, tmp_path, command, document, path, value, field):
        assert field in self.invoke(runner, tmp_path, command, document, path, value)

    @pytest.mark.parametrize("command", ["reconstruct", "cv"])
    def test_config_without_geometry_section_exits_2(self, runner, tmp_path, command):
        # a bare geometry document once ran as if it were the geometry section
        output = self.invoke(runner, tmp_path, command, "phantom", (), TINY_PHANTOM["geometry"])
        assert "missing required field geometry" in output


class TestRetiredSignConvention:
    @pytest.mark.parametrize("command", ["phantom", "acquire", "reconstruct", "cv"])
    def test_inverse_convention_exits_2_before_writing(self, runner, tmp_path, command):
        _, phantom_out, design_out, acquire_out, _ = build_pipeline(runner, tmp_path, iters=1)
        doc = json.loads(json.dumps(TINY_PHANTOM))
        doc["geometry"]["dft_sign_convention"] = "inverse"
        inverse = write_config(tmp_path / "inverse.json", doc)
        out = tmp_path / "out"
        if command == "phantom":
            args = ["phantom", "--config", inverse, "--out", str(out)]
        elif command == "acquire":
            args = ["acquire", "--config", inverse, "--schedule", design_out["schedule"],
                    "--truth", phantom_out["truth"], "--base", phantom_out["base"], "--out", str(out)]
        else:
            args = reconstruct_args(
                inverse, acquire_out["signals"], design_out["schedule"], phantom_out["base"], str(out)
            )
            args[0] = command
        result = runner.invoke(main, args)
        assert_clean_exit(result, 2)
        assert "dft_sign_convention" in result.output
        assert not out.exists()

    def test_forward_convention_runs_as_when_absent(self, runner, tmp_path):
        doc = json.loads(json.dumps(TINY_PHANTOM))
        doc["geometry"]["dft_sign_convention"] = "forward"
        (tmp_path / "absent").mkdir()
        (tmp_path / "forward").mkdir()
        absent = build_pipeline(runner, tmp_path / "absent", iters=3)
        forward = build_pipeline(runner, tmp_path / "forward", iters=3, phantom=doc)
        for a, b in [
            (absent[1]["truth"], forward[1]["truth"]),
            (absent[1]["base"], forward[1]["base"]),
            (absent[3]["signals"], forward[3]["signals"]),
            (absent[4]["recon"], forward[4]["recon"]),
        ]:
            assert sha256_file(a) == sha256_file(b)


class TestSolverBudgets:
    @pytest.mark.parametrize("command", ["reconstruct", "cv"])
    @pytest.mark.parametrize(
        "field, value",
        [("outer_iters", "2.5"), ("inner_iters", "1.5"), ("outer_iters", "1e400"),
         ("outer_iters", "true"), ("stop_tol", "0.0"), ("stop_tol", "-1e-3")],
    )
    def test_invalid_budget_exits_2_before_writing(self, runner, tmp_path, command, field, value):
        _, phantom_out, design_out, acquire_out, _ = build_pipeline(runner, tmp_path, iters=1)
        doc = json.loads(json.dumps(TINY_PHANTOM))
        doc["solver"] = {field: "VALUE"}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc).replace('"VALUE"', value))  # 1e400 has no json.dumps spelling
        out = tmp_path / "out"
        args = [command, "--config", str(bad), "--signals", acquire_out["signals"],
                "--schedule", design_out["schedule"], "--base", phantom_out["base"], "--out", str(out)]
        result = runner.invoke(main, args)
        assert_clean_exit(result, 2)
        assert field in result.output
        assert not out.exists()

    def test_iters_option_replaces_an_out_of_range_section_value(self, runner, tmp_path):
        # the section is type-checked, the options applied over it, and the ranges checked last
        _, phantom_out, design_out, acquire_out, _ = build_pipeline(runner, tmp_path, iters=1)
        config = write_config(tmp_path / "zero.json", {**TINY_PHANTOM, "solver": {"outer_iters": 0}})
        args = reconstruct_args(
            config, acquire_out["signals"], design_out["schedule"], phantom_out["base"], str(tmp_path / "r")
        )
        assert run_ok(runner, args)["iterations"] == 3  # reconstruct_args passes --iters 3


class TestStartup:
    @staticmethod
    def modules_after(code, *roots):
        """The modules under ``roots`` that a fresh interpreter has loaded after ``code`` runs."""
        src = str(Path(mrsi_cs.__file__).resolve().parents[1])
        code = (
            f"import sys; {code}; roots = {roots!r}; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in roots))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], cwd=src, capture_output=True, text=True, check=True
        )
        return out.stdout.strip()

    def test_cli_import_loads_no_scipy(self):
        assert self.modules_after("import mrsi_cs.cli", "scipy") == "[]"

    def test_cli_import_loads_no_openssl(self):
        # the manifest imports hashlib on its first hash, after a command's work is done
        assert self.modules_after("import mrsi_cs.cli", "hashlib", "_hashlib") == "[]"

    def test_plateau_onset_loads_no_numpy_ma(self):
        # np.median's first call imports numpy.ma, about 12 ms in a fresh process
        code = (
            "import numpy as np; from mrsi_cs.evaluate import detect_plateau_onset; "
            "assert detect_plateau_onset(np.minimum(0.05 * np.arange(40), 1.0)) == 19"
        )
        assert "'numpy.ma'" not in self.modules_after(code, "numpy")

    def test_design_loads_no_scipy(self):
        code = (
            "import mrsi_cs as mc; "
            "g = mc.AcquisitionGeometry(spatial_dims=(8, 8), spectral_evolution_points=16, "
            "readout_points=1); "
            "s = mc.build_schedule(mc.SamplerConfig(n_points=64, dims=(16, 8, 8)), g); "
            "assert s.n_acquired == 64"
        )
        assert self.modules_after(code, "scipy") == "[]"


class TestCvCommand:
    def test_coarse_sweep(self, runner, tmp_path):
        config, phantom_out, design_out, acquire_out, _ = build_pipeline(runner, tmp_path)
        out = run_ok(
            runner,
            [
                "cv",
                "--config", config,
                "--signals", acquire_out["signals"],
                "--schedule", design_out["schedule"],
                "--base", phantom_out["base"],
                "--out", str(tmp_path / "cv"),
                "--iters", "5",
            ],
        )
        assert out["combinations"] == 125
        table = Path(out["table"]).read_text().strip().splitlines()
        assert table[0] == "lambda_x,lambda_w1,lambda_w2,rmse"
        assert len(table) == 126
        selected = strict_json(Path(out["selected"]).read_text())
        assert {"lambda_x", "lambda_w1", "lambda_w2", "rmse"} <= set(selected)

    def test_cv_without_a_budget_runs_200_iterations(self, runner, tmp_path):
        config, phantom_out, design_out, acquire_out, _ = build_pipeline(runner, tmp_path, iters=1)
        assert "solver" not in TINY_PHANTOM
        run_ok(
            runner,
            ["cv", "--config", config, "--signals", acquire_out["signals"],
             "--schedule", design_out["schedule"], "--base", phantom_out["base"], "--out", str(tmp_path / "cv")],
        )
        manifest = strict_json((tmp_path / "cv" / "manifest.json").read_text())
        assert manifest["config"]["solver"]["outer_iters"] == 200


class TestOneFrame:
    def test_pipeline_runs_and_cv_exits_3(self, runner, tmp_path):
        doc = strict_json((Path(mrsi_cs.__file__).parent / "configs" / "exp1.json").read_text())
        doc["n_frames"] = 1
        config = write_config(tmp_path / "phantom.json", doc)
        design = write_config(
            tmp_path / "design.json", {"n_points": 1, "dims": [16, 8, 8], "skip": 0, "frame_interval_s": 4.0}
        )
        phantom_out = run_ok(runner, ["phantom", "--config", config, "--out", str(tmp_path / "ph")])
        design_out = run_ok(runner, ["design", "--config", design, "--out", str(tmp_path / "de")])
        acquire_out = run_ok(
            runner,
            ["acquire", "--config", config, "--schedule", design_out["schedule"],
             "--truth", phantom_out["truth"], "--base", phantom_out["base"], "--out", str(tmp_path / "ac")],
        )
        args = reconstruct_args(
            config, acquire_out["signals"], design_out["schedule"], phantom_out["base"], str(tmp_path / "re")
        )
        recon_out = run_ok(runner, args[:-1] + ["5"])
        rows = Path(recon_out["residuals"]).read_text().strip().splitlines()
        assert len(rows) == 1 + 5
        eval_out = run_ok(
            runner,
            ["evaluate", "--recon", recon_out["recon"], "--truth", phantom_out["truth"],
             "--out", str(tmp_path / "ev"), "--config", config],
        )
        # the ramp starts at 0, so the one truth frame is zero and the nRMSE has no finite value
        stats = strict_json(Path(eval_out["metrics"]).read_text())["substances"]["glucose"]
        assert stats["normalized_rmse"] is None
        out = tmp_path / "cv"
        args = reconstruct_args(config, acquire_out["signals"], design_out["schedule"], phantom_out["base"], str(out))
        args[0] = "cv"
        result = runner.invoke(main, args)
        assert_clean_exit(result, 3)
        assert "need at least two acquired frames" in result.output
        assert not out.exists()


class TestEvaluateCommand:
    def test_perfect_reconstruction_metrics(self, runner, tmp_path):
        config = write_config(tmp_path / "phantom.json", TINY_PHANTOM)
        phantom_out = run_ok(runner, ["phantom", "--config", config, "--out", str(tmp_path / "p")])
        out = run_ok(
            runner,
            [
                "evaluate",
                "--recon", phantom_out["truth"],
                "--truth", phantom_out["truth"],
                "--out", str(tmp_path / "ev"),
                "--config", config,
            ],
        )
        metrics = strict_json(Path(out["metrics"]).read_text())
        stats = metrics["substances"]["glucose"]
        assert stats["normalized_rmse"] == 0.0
        assert stats["pearson_r"] == pytest.approx(1.0)
        assert len(out["snapshots"]) == 3
        for snap in out["snapshots"]:
            assert Path(snap).read_bytes().startswith(b"P5\n")

    def test_shape_mismatch_exits_3(self, runner, tmp_path):
        config = write_config(tmp_path / "phantom.json", TINY_PHANTOM)
        phantom_out = run_ok(runner, ["phantom", "--config", config, "--out", str(tmp_path / "p")])
        other = tmp_path / "other.mrst"
        write_tensor(other, np.zeros((3, 2, 2, 1)))
        result = runner.invoke(
            main,
            [
                "evaluate",
                "--recon", str(other),
                "--truth", phantom_out["truth"],
                "--out", str(tmp_path / "ev"),
            ],
        )
        assert result.exit_code == 3

    def test_grids_of_the_same_voxel_count_exit_3_before_writing(self, runner, tmp_path):
        recon, truth = tmp_path / "recon.mrst", tmp_path / "truth.mrst"
        write_tensor(recon, np.zeros((6, 4, 4, 1)))
        write_tensor(truth, np.zeros((6, 2, 8, 1)))
        out = tmp_path / "ev"
        result = runner.invoke(main, ["evaluate", "--recon", str(recon), "--truth", str(truth), "--out", str(out)])
        assert_clean_exit(result, 3)
        assert not out.exists()

    @pytest.mark.parametrize("shape", [(0, 4, 4, 1), (3, 4, 4, 0), (3, 0, 4, 1)])
    @pytest.mark.parametrize("role", ["--recon", "--truth"])
    def test_tensor_with_an_empty_axis_exits_3_before_writing(self, runner, tmp_path, shape, role):
        empty, full = tmp_path / "empty.mrst", tmp_path / "full.mrst"
        write_tensor(empty, np.zeros(shape))
        write_tensor(full, np.zeros((3, 4, 4, 1)))
        paths = {"--recon": str(full), "--truth": str(full), role: str(empty)}
        out = tmp_path / "ev"
        result = runner.invoke(main, ["evaluate", *(a for item in paths.items() for a in item), "--out", str(out)])
        assert_clean_exit(result, 3)
        assert not out.exists()

    def test_upsampled_snapshots(self, runner, tmp_path):
        config = write_config(tmp_path / "phantom.json", TINY_PHANTOM)
        phantom_out = run_ok(runner, ["phantom", "--config", config, "--out", str(tmp_path / "p")])
        out = run_ok(
            runner,
            [
                "evaluate",
                "--recon", phantom_out["truth"],
                "--truth", phantom_out["truth"],
                "--out", str(tmp_path / "ev"),
                "--frames", "0,11",
                "--upsample", "4",
            ],
        )
        assert len(out["snapshots"]) == 2
        assert Path(out["snapshots"][0]).read_bytes().startswith(b"P5\n8 8\n")

    def test_three_dimensional_grid_stacks_slices(self, runner, tmp_path):
        truth = tmp_path / "truth.mrst"
        write_tensor(truth, np.random.default_rng(3).random((3, 2, 3, 4, 1)))
        out = run_ok(
            runner,
            ["evaluate", "--recon", str(truth), "--truth", str(truth), "--out", str(tmp_path / "ev")],
        )
        assert len(out["snapshots"]) == 3
        for snap in out["snapshots"]:
            assert Path(snap).read_bytes().startswith(b"P5\n4 6\n255\n")

    @pytest.mark.parametrize("frames", ["0,x", "1.5", "12", "-1"])
    def test_bad_frames_exit_2_before_writing(self, runner, tmp_path, frames):
        config = write_config(tmp_path / "phantom.json", TINY_PHANTOM)
        phantom_out = run_ok(runner, ["phantom", "--config", config, "--out", str(tmp_path / "ph")])
        out = tmp_path / "ev"
        result = runner.invoke(
            main,
            ["evaluate", "--recon", phantom_out["truth"], "--truth", phantom_out["truth"],
             "--out", str(out), "--frames", frames],
        )
        assert_clean_exit(result, 2)
        assert "--frames" in result.output
        assert not out.exists()


class TestProfilesCsv:
    def test_round_trippable_rows(self, runner, tmp_path):
        recon, truth = tmp_path / "recon.mrst", tmp_path / "truth.mrst"
        write_tensor(recon, np.array([0.0, 0.5, 1.0]).reshape(3, 1, 1))
        write_tensor(truth, np.array([0.1, 0.6, 0.9]).reshape(3, 1, 1))
        config = write_config(tmp_path / "phantom.json", TINY_PHANTOM)  # labels the substance glucose
        out = run_ok(
            runner,
            ["evaluate", "--recon", str(recon), "--truth", str(truth), "--config", config,
             "--out", str(tmp_path / "ev")],
        )
        lines = Path(out["profiles"]).read_text().strip().splitlines()
        assert lines[0] == "frame,glucose_recon,glucose_truth"
        assert len(lines) == 4
        assert lines[1].split(",") == ["0", "0.0", "0.1"]


class TestTextWriters:
    """The one CSV writer and the one JSON writer, byte for byte."""

    def test_csv_keeps_ints_and_prints_floats_by_repr(self, tmp_path):
        path = tmp_path / "table.csv"
        rows = [(1, np.float64(0.5), 0.25), [20, np.float64(1e-20), np.float64(-3.0)]]
        _write_csv(path, ["frame", "a,b", "c"], iter(rows))
        assert path.read_bytes() == b'frame,"a,b",c\r\n1,0.5,0.25\r\n20,1e-20,-3.0\r\n'

    def test_json_is_indented_sorted_and_ends_in_a_newline(self, tmp_path):
        path = tmp_path / "doc.json"
        write_json(path, {"substances": {"b": {"pearson_r": None, "hottest_voxel": 3}}, "a": [np.float64(0.5), 1]})
        assert path.read_text() == (
            '{\n "a": [\n  0.5,\n  1\n ],\n "substances": {\n  "b": {\n'
            '   "hottest_voxel": 3,\n   "pearson_r": null\n  }\n }\n}\n'
        )


class TestPipelineDeterminism:
    def test_stage_outputs_are_byte_identical(self, runner, tmp_path):
        (tmp_path / "run1").mkdir()
        (tmp_path / "run2").mkdir()
        first = build_pipeline(runner, tmp_path / "run1")
        second = build_pipeline(runner, tmp_path / "run2")
        for a, b in [
            (first[1]["truth"], second[1]["truth"]),
            (first[1]["base"], second[1]["base"]),
            (first[2]["schedule"], second[2]["schedule"]),
            (first[3]["signals"], second[3]["signals"]),
            (first[4]["recon"], second[4]["recon"]),
            (first[4]["residuals"], second[4]["residuals"]),
        ]:
            assert sha256_file(a) == sha256_file(b)


MANIFEST_KEYS = {
    "tool", "version", "command", "arguments", "config", "seeds", "inputs", "outputs", "timings_s",
}


class TestManifests:
    def test_every_command_records_its_files(self, runner, tmp_path):
        config, phantom_out, design_out, acquire_out, recon_out = build_pipeline(runner, tmp_path)
        recon_inputs = [config, acquire_out["signals"], design_out["schedule"], phantom_out["base"]]
        cv_out = run_ok(
            runner,
            ["cv", "--config", config, "--signals", acquire_out["signals"],
             "--schedule", design_out["schedule"], "--base", phantom_out["base"],
             "--out", str(tmp_path / "cv"), "--iters", "2"],
        )
        eval_out = run_ok(
            runner,
            ["evaluate", "--recon", recon_out["recon"], "--truth", phantom_out["truth"],
             "--out", str(tmp_path / "ev"), "--config", config],
        )
        expected = {
            "ph": ("phantom", [config], [phantom_out["truth"], phantom_out["base"]]),
            "de": ("design", [str(tmp_path / "design.json")], [design_out["schedule"]]),
            "ac": (
                "acquire",
                [config, design_out["schedule"], phantom_out["truth"], phantom_out["base"]],
                [acquire_out["signals"]],
            ),
            "re": ("reconstruct", recon_inputs, [recon_out["recon"], recon_out["residuals"]]),
            "cv": ("cv", recon_inputs, [cv_out["table"], cv_out["selected"]]),
            "ev": (
                "evaluate",
                [recon_out["recon"], phantom_out["truth"], config],
                [eval_out["metrics"], eval_out["profiles"], *eval_out["snapshots"]],
            ),
        }
        # every declared option is recorded, under its first flag without dashes
        arguments = {
            "phantom": {"config", "out", "seed"},
            "design": {"config", "out"},
            "acquire": {"config", "schedule", "truth", "base", "out", "seed"},
            "reconstruct": {
                "config", "signals", "schedule", "base", "out",
                "iters", "inner_iters", "lambda_x", "lambda_w1", "lambda_w2",
            },
            "cv": {"config", "signals", "schedule", "base", "out", "paper_grid", "threads", "iters"},
            "evaluate": {"recon", "truth", "out", "config", "frames", "upsample"},
        }
        assert len(eval_out["snapshots"]) == 3
        manifests = {}
        for outdir, (command, inputs, outputs) in expected.items():
            manifest = strict_json((tmp_path / outdir / "manifest.json").read_text())
            manifests[command] = manifest
            assert set(manifest) == MANIFEST_KEYS
            assert manifest["command"] == command
            assert manifest["tool"] == "mrsi-cs"
            assert manifest["version"] == mrsi_cs.__version__
            assert "write" in manifest["timings_s"]
            flags = {param.opts[0] for param in main.commands[command].params}
            assert flags == {"--" + key.replace("_", "-") for key in arguments[command]}
            assert set(manifest["arguments"]) == arguments[command]
            assert [e["path"] for e in manifest["inputs"]] == inputs
            assert [e["path"] for e in manifest["outputs"]] == outputs
            for entry in manifest["inputs"] + manifest["outputs"]:
                assert Path(entry["path"]).is_file()
                assert entry["sha256"] == sha256_file(entry["path"])
        resolved = SolverConfig(lambda_x=0.001, lambda_w1=0.01, lambda_w2=0.01, outer_iters=10)
        assert manifests["reconstruct"]["config"]["solver"] == dataclasses.asdict(resolved)
        assert manifests["cv"]["config"]["solver"] == dataclasses.asdict(SolverConfig(outer_iters=2))
        assert manifests["cv"]["config"]["grid"] == list(COARSE_GRID)
        recorded = manifests["reconstruct"]["arguments"]
        assert (recorded["iters"], recorded["lambda_x"], recorded["inner_iters"]) == (10, 0.001, None)
        assert manifests["cv"]["arguments"]["iters"] == 2
        assert manifests["evaluate"]["arguments"]["frames"] is None

    def test_sha256_file_reads_large_files_in_chunks(self, tmp_path):
        import hashlib

        data = np.random.default_rng(0).bytes((1 << 20) * 2 + 12345)  # two full chunks and a partial one
        path = tmp_path / "large.bin"
        path.write_bytes(data)
        assert sha256_file(path) == hashlib.sha256(data).hexdigest()
