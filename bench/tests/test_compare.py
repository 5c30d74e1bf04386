import copy
import json

import compare


def results(latency=100.0, failed=0, spread=None, **fingerprint):
    base = {
        "commit": "abc", "cpu_count": 2, "python": "3.11.7", "numpy": "2.4.6",
        "platform": "Linux", "seed": 1,
    }
    base.update(fingerprint)
    entry = {
        "end_to_end": {
            "setup_s": 0.5, "latency_ms_p50": latency, "latency_ms_p75": 200.0,
            "throughput_per_s": 2.0, "peak_rss_mb": 150.0,
        },
        "attempted": 24, "failed": failed,
        "digests": {"paper_mix/pfc-storm/seed=1": "d1"},
    }
    if spread is not None:
        entry["spread"] = {"latency_ms_p50": spread}
    return {
        "fingerprint": base, "seconds": 12, "comparable": True,
        "workloads": {"paper_mix": entry},
    }


def run(tmp_path, a, b, *flags):
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps(a))
    pb.write_text(json.dumps(b))
    return compare.main([str(pa), str(pb), *flags])


def test_same_results_pass(tmp_path, capsys):
    assert run(tmp_path, results(), results()) == 0
    out = capsys.readouterr().out
    assert "latency_ms_p50" in out and "fail_share" in out


def test_direction_and_bound_decide():
    bound = compare.load_bounds()["latency_ms_p50"][1]
    none = (None, None)
    assert compare.judge(100, 100 * (1 + bound) * 1.01, "lower", bound, none) == "REGRESSION"
    assert compare.judge(100, 100 * (1 + bound) * 0.99, "lower", bound, none) == "ok"
    assert compare.judge(100, 50, "lower", bound, none) == "improved"
    # Higher-is-better metrics regress downwards.
    assert compare.judge(2.0, 1.0, "higher", 0.15, none) == "REGRESSION"
    assert compare.judge(2.0, 3.0, "higher", 0.15, none) == "improved"


def test_regression_exits_non_zero(tmp_path):
    assert run(tmp_path, results(), results(latency=160.0)) == 1


def test_wide_spread_is_unresolved_not_unchanged(tmp_path, capsys):
    assert run(tmp_path, results(spread=0.5), results(latency=160.0)) == 0
    assert "unresolved" in capsys.readouterr().out


def test_higher_fail_share_exits_non_zero(tmp_path):
    assert run(tmp_path, results(), results(failed=1)) == 1


def test_changed_sim_digest_exits_non_zero(tmp_path, capsys):
    changed = results()
    changed["workloads"]["paper_mix"]["digests"]["paper_mix/pfc-storm/seed=1"] = "d2"
    assert run(tmp_path, results(), changed) == 1
    assert "sim_digest changed" in capsys.readouterr().out


def test_mixed_fingerprints_are_refused_without_say_so(tmp_path, capsys):
    other = results(cpu_count=1)
    assert run(tmp_path, results(), other) == 2
    assert "cpu_count" in capsys.readouterr().out
    assert run(tmp_path, results(), other, "--allow-mixed") == 0


def test_smoke_results_are_not_comparable(tmp_path):
    smoke = copy.deepcopy(results())
    smoke["comparable"] = False
    assert run(tmp_path, results(), smoke) == 2
