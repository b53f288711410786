import compare


def entry(values, better="lower", bound=0.1):
    import statistics

    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"unit": "ms", "better": better, "bound": bound, "median": median,
            "q1": q1, "q3": q3, "n": len(values), "values": values}


def test_verdicts():
    steady = [10.0, 10.1, 9.9, 10.0, 10.05]
    assert compare.judge(entry(steady), entry([v * 1.05 for v in steady])) == "within bound"
    assert compare.judge(entry(steady), entry([v * 1.2 for v in steady])) == "regressed"
    assert compare.judge(entry(steady), entry([v * 0.9 for v in steady])) == "better in every run"
    noisy = [8.0, 12.0, 10.0, 9.0, 11.5]
    assert compare.judge(entry(noisy), entry(noisy)) == "unresolved"
    faster = entry([100, 101, 99, 100, 102], better="higher")
    slower = entry([80, 81, 79, 80, 82], better="higher")
    assert compare.judge(faster, slower) == "regressed"
    assert compare.judge(slower, faster) == "better in every run"


def result(median_shift=1.0, digest="d"):
    values = [10.0 * median_shift, 10.1 * median_shift, 9.9 * median_shift]
    exact = {"inputs_digest": "i", "decisions_digest": digest,
             "virtual_latency_p95_s": 1.002, "counts": {"decisions": 5}}
    workload = {"end_to_end": {"decision_ms_p50": entry(values)}, "exact": exact,
                "attempted": 15, "failed": 0}
    return {"schema": "repro.bench/v1", "workloads": {"w": workload}}


def test_exit_code_and_rows(capsys):
    assert compare.compare(result(), result(1.02)) == 0
    assert "base A = 10" in capsys.readouterr().out
    assert compare.compare(result(), result(1.5)) == 1
    assert compare.compare(result(), result(digest="other")) == 1
    assert "DIFFERS" in capsys.readouterr().out
