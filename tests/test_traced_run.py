"""The benchmark's traced run still works against the current API.

`perfbench/tracing.py` swaps the names `absorblab.experiments` calls for
wrappers that pass their arguments through and read counts off the results.
It is imported here as it stands, so a renamed function, a changed call or
a moved `Trajectory` field fails this test and not only the benchmark.
"""

from absorblab import ExperimentSpec
from absorblab import experiments


def test_traced_flat_validation_counts_its_steps(tmp_path, load_perfbench):
    tracing = load_perfbench("tracing")
    tracer = tracing.Tracer()
    spec = ExperimentSpec("flat_validation", {"p": 2, "q": 2, "nodes": 41})
    with tracing.installed(tracer, experiments), tracer.request(0):
        record = experiments.run_experiment(spec, out_dir=tmp_path, runid="traced")
    assert not record.failed, record.error
    assert experiments.solve.__module__ == "absorblab.evolution"  # restored

    solves = [span for span in tracer.spans if span.name == "solve"]
    assert len(solves) == 1 and solves[0].ok
    rows = (tmp_path / "steps_traced.csv").read_text().splitlines()[1:]
    retries = sum(int(row.rsplit(",", 1)[1]) for row in rows)
    assert rows
    assert solves[0].counts == {"components": 2, "nodes": 41,
                                "accepted": len(rows), "rejected": retries}

    _, counts = tracing.pass_metrics(tracer.spans)
    assert counts["evolution.accepted_steps"] == len(rows)
    assert counts["experiments.runs"] == 1
