"""Command-line interface and JSON serialization."""

import json
import math

import numpy as np
import pytest

from su2drift import serialize, three_qubit, verify
from su2drift.cli import main
from su2drift.wigner import MAX_TJ


def test_density_json_roundtrip(tmp_path):
    rng = np.random.default_rng(40)
    rho = verify._random_density(rng, 8)
    path = tmp_path / "rho.json"
    serialize.save_density(str(path), rho)
    back = serialize.load_density(str(path))
    assert np.allclose(back, rho, atol=1e-15)
    obj = json.loads(path.read_text())
    assert set(obj) == {"dim", "re", "im"}
    assert obj["dim"] == 8


def test_density_json_validation():
    with pytest.raises(ValueError):
        serialize.density_to_json(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        serialize.density_from_json({"dim": 3, "re": [[0.0]], "im": [[0.0]]})


def test_cli_wigner_cg(capsys):
    code = main(
        "wigner cg --tj1 1 --tm1 1 --tj2 1 --tm2 -1 --tj 0 --tm 0".split()
    )
    assert code == 0
    out = capsys.readouterr().out.strip()
    assert float(out) == pytest.approx(1 / math.sqrt(2), abs=1e-15)


def test_cli_wigner_selection_rule_note(capsys):
    code = main(
        "wigner cg --tj1 1 --tm1 1 --tj2 1 --tm2 1 --tj 0 --tm 0".split()
    )
    assert code == 0
    captured = capsys.readouterr()
    assert float(captured.out.strip()) == 0.0
    assert "selection rule" in captured.err


def test_cli_wigner_sixj(capsys):
    code = main("wigner sixj --tj1 2 --tj2 2 --tj3 2 --tj4 2 --tj5 2 --tj6 2".split())
    assert code == 0
    assert float(capsys.readouterr().out.strip()) == pytest.approx(1 / 6, abs=1e-12)


def test_cli_kernel_eval(capsys):
    code = main("kernel eval --t 50 --xi 2.0".split())
    assert code == 0
    assert float(capsys.readouterr().out.strip()) == pytest.approx(1.0, abs=1e-8)


def test_cli_kernel_sample_csv_and_manifest(tmp_path, capsys):
    out = tmp_path / "samples.csv"
    code = main(f"kernel sample --t 0.5 --n 50 --seed 11 --out {out}".split())
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "index,xi,qw,qx,qy,qz"
    assert len(lines) == 51
    row = [float(v) for v in lines[1].split(",")[1:]]
    assert sum(v * v for v in row[1:]) == pytest.approx(1.0, abs=1e-12)
    manifest = json.loads((tmp_path / "samples.manifest.json").read_text())
    assert manifest["seed"] == 11
    assert "command" in manifest and "timestamp" in manifest


def test_cli_channel_apply_roundtrip(tmp_path, capsys):
    rng = np.random.default_rng(42)
    rho = verify._random_density(rng, 4)
    src = tmp_path / "in.json"
    dst = tmp_path / "out.json"
    serialize.save_density(str(src), rho)
    code = main(f"channel apply --n 2 --t 0.5 --in {src} --out {dst}".split())
    assert code == 0
    out = serialize.load_density(str(dst))
    assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)


def test_cli_channel_mc_check(capsys):
    code = main("channel mc-check --n 2 --t 0.3 --samples 20000 --seed 9".split())
    assert code == 0
    assert "sigma" in capsys.readouterr().out


def test_cli_channel_choi_qutrit(tmp_path, capsys):
    dst = tmp_path / "choi.json"
    code = main(f"channel choi --n 3 --t 0.5 --mode qutrit --out {dst}".split())
    assert code == 0
    choi = serialize.load_density(str(dst))
    assert choi.shape == (9, 9)
    assert main(f"channel choi --n 2 --t 0.5 --mode qutrit --out {dst}".split()) == 2
    assert "--n 3" in capsys.readouterr().err


def test_cli_three_fidelity(capsys):
    code = main("three fidelity --t 0.5".split())
    assert code == 0
    best, worst, average = capsys.readouterr().out.strip().split("\n")
    et, e2t = math.exp(-0.5), math.exp(-1.0)
    assert best == (f"best  f={(24 + 25 * et - e2t) / 48:.17g} "
                    f"at theta={math.acos(-0.25):.6f} phi=0.000000")
    assert worst == (f"worst f={(12 - et + 13 * e2t) / 24:.17g} "
                     f"at theta={math.pi / 3:.6f} phi={math.pi / 2:.6f}")
    assert average.startswith("average:")


def test_cli_three_threshold(tmp_path, capsys):
    assert main("three threshold".split()) == 0
    out = capsys.readouterr().out
    t_star = float(out.split("\n")[0].split("=")[1])
    assert 0.265 <= t_star <= 0.285
    assert f"from t_PPT = ln 3 = {math.log(3):.17g}" in out
    assert f"t_Q lies in [{t_star:.7f}, {three_qubit.ANTIDEGRADABLE_FROM:g}]" in out
    # above the cut the coherent-information sweep reports the certificate
    dst = tmp_path / "ci.csv"
    assert main(f"three sweep --quantity coherent-info --t-from 0.4 --t-to 1 --t-steps 2 "
                f"--restarts 1 --out {dst}".split()) == 0
    lines = dst.read_text().strip().split("\n")
    assert lines[0] == "t,coherent_info,upper_bound,epsilon,nfev"
    assert [line.split(",")[1:3] for line in lines[1:]] == [["0", "0"], ["0", "0"]]


def test_cli_three_sweep(tmp_path, capsys):
    dst = tmp_path / "avg.csv"
    code = main(
        f"three sweep --quantity avg-fidelity --t-from 0 --t-to 1 --t-steps 5 --out {dst}".split()
    )
    assert code == 0
    lines = dst.read_text().strip().split("\n")
    assert lines[0] == "t,avg_fidelity"
    assert len(lines) == 6
    vals = [float(line.split(",")[1]) for line in lines[1:]]
    assert vals == sorted(vals, reverse=True)
    assert (tmp_path / "avg.manifest.json").exists()
    # the capacity sweep reports its certificate and objective evaluations per row
    dst = tmp_path / "cap.csv"
    code = main(f"three sweep --quantity capacity --t-from 0.5 --t-to 1 --t-steps 2 "
                f"--restarts 1 --out {dst}".split())
    assert code == 0
    lines = dst.read_text().strip().split("\n")
    assert lines[0] == "t,capacity,upper_bound,gap,q,theta,nfev"
    assert len(lines) == 3 and all(int(line.split(",")[-1]) > 1 for line in lines[1:])
    for line in lines[1:]:
        capacity, upper, gap = map(float, line.split(",")[1:4])
        assert upper >= capacity and gap == upper - capacity
    # the orthogonal sweep puts the best and worst orthogonal pairs below the capacity
    dst = tmp_path / "orth.csv"
    code = main(f"three sweep --quantity orthogonal --t-from 0.5 --t-to 1 --t-steps 2 "
                f"--restarts 1 --out {dst}".split())
    assert code == 0
    lines = dst.read_text().strip().split("\n")
    assert lines[0] == "t,capacity,best_orthogonal,worst_orthogonal"
    assert len(lines) == 3
    for line in lines[1:]:
        capacity, best, worst = map(float, line.split(",")[1:])
        assert capacity >= best >= worst


def _stub_checks(monkeypatch, *extra):
    """Stand-in verify.CHECKS: two quick passing stubs, then any extra
    quick checks, then a non-quick stub that --quick must skip."""
    def passing(ctx):
        return True, "stub"

    def skipped(ctx):
        raise AssertionError("--quick ran a non-quick check")

    checks = [("stub_a", True, passing), ("stub_b", True, passing), *extra,
              ("stub_slow", False, skipped)]
    monkeypatch.setattr(verify, "CHECKS", checks)
    monkeypatch.delenv("SU2DRIFT_SEED", raising=False)


def test_cli_verify_quick(capsys, monkeypatch):
    _stub_checks(monkeypatch)
    code = main("verify --quick".split())
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_cli_verify_json_report(tmp_path, capsys, monkeypatch):
    _stub_checks(monkeypatch)
    report = tmp_path / "report.json"
    code = main(f"verify --quick --report {report}".split())
    assert code == 0
    obj = json.loads(report.read_text())
    assert obj["failed"] == 0
    assert all("check" in r and "ok" in r for r in obj["results"])
    quick = [name for name, is_quick, _ in verify.CHECKS if is_quick]
    assert [r["check"] for r in obj["results"]] == quick == ["stub_a", "stub_b"]


def test_cli_verify_failing_check_exits_1(capsys, monkeypatch):
    _stub_checks(monkeypatch, ("stub_bad", True, lambda ctx: (False, "bad")))
    assert main("verify --quick".split()) == 1
    out = capsys.readouterr().out
    assert "FAIL stub_bad - bad" in out
    assert "2 passed, 1 failed" in out


def test_cli_verify_raising_check_fails_without_abort(tmp_path, capsys, monkeypatch):
    def boom(ctx):
        raise RuntimeError("boom")

    _stub_checks(monkeypatch, ("stub_boom", True, boom), ("stub_c", True, lambda ctx: (True, "c")))
    report = tmp_path / "report.json"
    assert main(f"verify --quick --report {report}".split()) == 1
    results = json.loads(report.read_text())["results"]
    assert [(r["check"], r["ok"]) for r in results] == [
        ("stub_a", True), ("stub_b", True), ("stub_boom", False), ("stub_c", True)]
    assert "boom" in results[2]["detail"]
    assert "FAIL stub_boom" in capsys.readouterr().out


def test_cli_seed_zero_is_used_as_given(tmp_path, capsys, monkeypatch):
    # one stub check stands in for the suite and records the seed it gets
    seen = []

    def stub(ctx):
        seen.append(ctx["seed"])
        return True, "stub"

    monkeypatch.setattr(verify, "CHECKS", [("stub", True, stub)])
    monkeypatch.delenv("SU2DRIFT_SEED", raising=False)
    report = tmp_path / "r.json"
    assert main(f"verify --quick --seed 0 --report {report}".split()) == 0
    assert json.loads(report.read_text())["seed"] == 0
    monkeypatch.setenv("SU2DRIFT_SEED", "0")
    assert main(f"verify --quick --report {report}".split()) == 0
    assert json.loads(report.read_text())["seed"] == 0
    assert seen == [0, 0]


def test_cli_sweep_manifest_records_seed_used(tmp_path, capsys, monkeypatch):
    used = []

    def fake_maximize(t, config=None):
        used.append(config.seed)
        return three_qubit.CoherentInfoResult(0.0, 0.5, 0.0, math.inf, True, 17)

    monkeypatch.setattr(three_qubit, "maximize_coherent_info", fake_maximize)
    dst = tmp_path / "ci.csv"
    cmd = f"three sweep --quantity coherent-info --t-from 0 --t-to 1 --t-steps 2 --out {dst}"
    for env, flag, expect in ((None, "", 7), ("3", "", 3), ("3", " --seed 0", 0)):
        if env is None:
            monkeypatch.delenv("SU2DRIFT_SEED", raising=False)
        else:
            monkeypatch.setenv("SU2DRIFT_SEED", env)
        used.clear()
        assert main((cmd + flag).split()) == 0
        manifest = json.loads((tmp_path / "ci.manifest.json").read_text())
        assert manifest["seed"] == expect
        assert used == [expect, expect]
        lines = dst.read_text().strip().split("\n")
        assert lines[0] == "t,coherent_info,upper_bound,epsilon,nfev"
        assert [line.split(",")[-1] for line in lines[1:]] == ["17", "17"]


def test_cli_usage_error_exit_code(tmp_path, capsys, monkeypatch):
    assert main(["wigner", "unknown-sub"]) == 2
    assert main(["channel", "apply", "--n", "2", "--t", "0.5",
                 "--in", "/nonexistent.json", "--out", "/tmp/x.json"]) == 2
    dst = tmp_path / "choi.json"
    assert main(f"channel choi --n 2 --t nan --out {dst}".split()) == 2
    src = tmp_path / "ones.json"
    serialize.save_density(str(src), np.ones((4, 4)))
    assert main(f"channel apply --n 2 --t 0.5 --in {src} --out {dst}".split()) == 2
    # so is an --in that is not a JSON object, or a directory
    listed = tmp_path / "list.json"
    listed.write_text("[1, 2]")
    for bad in (listed, tmp_path):
        assert main(f"channel apply --n 1 --t 0.5 --in {bad} --out {dst}".split()) == 2
    assert not dst.exists()
    # a non-finite or negative diffusion time is a usage error everywhere
    sweep = f"three sweep --quantity avg-fidelity --out {tmp_path / 'sweep.csv'}"
    for bad in ("nan", "inf", "-0.5"):
        assert main(["kernel", "eval", "--t", bad, "--xi", "1"]) == 2
        assert main(["kernel", "sample", "--t", bad, "--n", "5",
                     "--out", str(tmp_path / "k.csv")]) == 2
        assert main(["three", "fidelity", "--t", bad]) == 2
        assert main(sweep.split() + ["--t-from", bad, "--t-to", "1"]) == 2
        assert main(sweep.split() + ["--t-from", "0", "--t-to", bad]) == 2
        assert main(["channel", "mc-check", "--n", "2", "--t", bad]) == 2
        assert main(["channel", "choi", "--n", "2", "--t", bad,
                     "--out", str(dst)]) == 2
    # so is an empty or non-integer sweep or sample count
    for bad in ("0", "-3", "2.5"):
        assert main(sweep.split() + ["--t-from", "0", "--t-to", "1", "--t-steps", bad]) == 2
    for bad in ("0", "-3"):
        assert main(["kernel", "sample", "--t", "0.5", "--n", bad,
                     "--out", str(tmp_path / "k.csv")]) == 2
    assert not (tmp_path / "k.csv").exists()
    # so is a non-finite class angle
    for bad in ("nan", "inf"):
        assert main(["kernel", "eval", "--t", "0.5", "--xi", bad]) == 2
    assert not dst.exists()
    assert not (tmp_path / "sweep.csv").exists()
    assert not (tmp_path / "k.csv").exists()
    # N beyond the cap table, or not an integer, is rejected before any 2^N
    # array is built
    assert main("channel mc-check --n 17 --t 0.5".split()) == 2
    for bad in ("2.5", "3.0"):
        assert main(f"channel choi --n {bad} --t 0.5 --out {dst}".split()) == 2
    assert main(f"channel choi --n 6 --t 0.5 --out {dst}".split()) == 2
    assert not dst.exists()
    assert "out of range" in capsys.readouterr().err
    # so is a spin label beyond the cost cap
    big = MAX_TJ + 2
    assert main(f"wigner sixj --tj1 {big} --tj2 {big} --tj3 {big} --tj4 {big} --tj5 {big} "
                f"--tj6 {big}".split()) == 2
    assert f"above MAX_TJ = {MAX_TJ}" in capsys.readouterr().err
    # and a negative seed, given as a flag or through SU2DRIFT_SEED
    samples = tmp_path / "k.csv"
    for cmd in ("verify --quick", f"kernel sample --t 0.5 --n 5 --out {samples}",
                "channel mc-check --n 2 --t 0.5 --samples 1000", f"{sweep} --t-from 0 --t-to 1"):
        assert main(f"{cmd} --seed -1".split()) == 2
    monkeypatch.setenv("SU2DRIFT_SEED", "-1")
    assert main("verify --quick".split()) == 2
    assert not samples.exists() and not (tmp_path / "sweep.csv").exists()
    # a non-integer SU2DRIFT_SEED is a usage error; an explicit --seed wins
    monkeypatch.setenv("SU2DRIFT_SEED", "abc")
    assert main("verify --quick".split()) == 2
    assert main(f"kernel sample --t 0.5 --n 5 --out {samples}".split()) == 2
    assert not samples.exists()
    assert main(f"kernel sample --t 0.5 --n 5 --seed 5 --out {samples}".split()) == 0
    assert json.loads((tmp_path / "k.manifest.json").read_text())["seed"] == 5
