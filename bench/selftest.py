"""Self-test of the benchmark harness.

    python3 bench/selftest.py

Checks that the tracer wraps what it claims to wrap, that its self-time
accounting partitions the traced wall, that each layer counts work on
the workload meant to exercise it, that tracing leaves every answer
unchanged, and that a wrong answer fails the pass.  Takes about a
minute: it runs one span-traced, one counting and one untraced pass of
each workload.
"""

import inspect
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from barmc.bar import koszul_probe  # noqa: E402
from barmc.examples import kpoints  # noqa: E402
from barmc.scalars import Field  # noqa: E402

ZERO_MC = [n for n in tracer.SPAN_COUNTERS if n.startswith("mc.")]


def wrapped(value):
    raw = value.__func__ if isinstance(value, (staticmethod, classmethod)) else value
    raw = raw.fget if isinstance(raw, property) else raw
    return hasattr(raw, "__wrapped__")


class TracerWiring(unittest.TestCase):
    def test_every_hooked_name_exists(self):
        for dotted in tracer.HOOKS:
            owner, name = tracer.resolve(dotted)
            self.assertIn(name, vars(owner))
        with self.assertRaises(AttributeError):
            tracer.resolve("linalg.Elimination.no_such_method")

    def test_spans_rebind_every_import_site(self):
        spans = tracer.Spans()
        originals = {}
        for layer in tracer.SPAN_LAYERS:
            for owner, name, raw in tracer.public_callables(
                    tracer.layer_module(layer)):
                originals[id(raw)] = "%s.%s" % (owner.__name__, name)
        spans.install()
        try:
            for module in tracer.namespaces():
                for name, value in vars(module).items():
                    if inspect.isfunction(value) and id(value) in originals:
                        if name in tracer.VECTOR_OPS:
                            continue
                        self.fail("%s.%s still binds the unwrapped %s"
                                  % (module.__name__, name, originals[id(value)]))
            for layer in tracer.SPAN_LAYERS:
                for owner, name, raw in tracer.public_callables(
                        tracer.layer_module(layer)):
                    if name in tracer.VECTOR_OPS:
                        continue
                    self.assertTrue(wrapped(raw), "%s.%s" % (owner.__name__, name))
        finally:
            spans.restore()
        for module in tracer.namespaces():
            for value in vars(module).values():
                self.assertFalse(inspect.isfunction(value) and wrapped(value))

    def test_counts_wrap_aliases_separately(self):
        from barmc.scalars import Scalar
        self.assertIs(vars(Scalar)["__radd__"], vars(Scalar)["__add__"])
        counts = tracer.Counts()
        counts.install()
        try:
            for name in tracer.SCALAR_OPS:
                self.assertTrue(wrapped(vars(Scalar)[name]), name)
            F2 = Field.prime(2)
            a = F2(1)
            before = counts.counters["scalars.ops"]
            1 + a  # __radd__
            2 * a  # __rmul__
            self.assertEqual(counts.counters["scalars.ops"] - before, 2)
        finally:
            counts.restore()
        self.assertFalse(wrapped(vars(Scalar)["__radd__"]))

    def test_nested_same_layer_spans_count_once(self):
        A = kpoints(Field.rationals(), 1)
        spans = tracer.Spans([sys.modules[__name__]])
        spans.install()
        try:
            spans.start()
            koszul_probe(A, 2)
            spans.stop()
        finally:
            spans.restore()
        # koszul_probe -> s_hat_cohomology -> dual_dg_algebra -> ... stay
        # inside bar, so the only entry into bar is the outer call
        self.assertEqual(spans.entries["bar"], 1)
        self.assertGreater(spans.counters["bar.duals_built"], 0)
        self.assertAlmostEqual(sum(spans.self_s.values()), spans.wall_s,
                               delta=1e-9 * max(1.0, spans.wall_s))


class Workloads(unittest.TestCase):
    """One span-traced, counting and untraced pass per workload."""

    @classmethod
    def setUpClass(cls):
        cls.passes = {}
        for workload in run.WORKLOADS:
            cls.passes[workload] = {
                mode: run.child(workload, 7, mode, timeout=170)
                for mode in ("plain", "spans", "counts")}

    def metrics(self, workload):
        out = dict(self.passes[workload]["spans"]["metrics"])
        out.update(self.passes[workload]["counts"]["metrics"])
        return out

    def test_all_answers_as_expected(self):
        for workload, modes in self.passes.items():
            for mode, report in modes.items():
                for job in report["jobs"]:
                    self.assertIsNone(job["error"], (workload, mode, job["job"]))

    def test_traced_answers_equal_untraced(self):
        for workload, modes in self.passes.items():
            plain = [j["answer"] for j in modes["plain"]["jobs"]]
            for mode in ("spans", "counts"):
                self.assertEqual([j["answer"] for j in modes[mode]["jobs"]],
                                 plain, (workload, mode))

    def test_self_times_add_up_to_traced_wall(self):
        for workload in self.passes:
            m = self.metrics(workload)
            total = sum(m["%s.self_s" % l]
                        for l in tracer.SPAN_LAYERS + (tracer.OTHER,))
            self.assertAlmostEqual(total, m["trace.wall_s"],
                                   delta=1e-9 * m["trace.wall_s"])

    def test_each_layer_counts_on_its_workload(self):
        expect_positive = {
            "koszul": ["scalars.ops", "scalars.coercions", "linalg.calls",
                       "linalg.eliminations", "linalg.subspace_builds",
                       "linalg.span_queries", "bar.duals_built",
                       "bar.dual_dim"],
            "gauge": ["scalars.ops", "scalars.coercions", "linalg.eliminations",
                      "ainfinity.evals", "bar.duals_built", "mc.setups",
                      "mc.candidates", "mc.elements", "mc.category_ops",
                      "mc.homsets", "twisting.algebra_maps",
                      "twisting.induced_maps", "artin.quotients"],
            "certify": ["ainfinity.residual_tuples", "ainfinity.tensor_builds",
                        "ainfinity.tensor_entries", "transfer.splittings"],
        }
        for workload, names in expect_positive.items():
            m = self.metrics(workload)
            for name in names:
                self.assertGreater(m[name], 0, (workload, name))

    def test_workload_design(self):
        shares = {}
        for workload in self.passes:
            m = self.metrics(workload)
            shares[workload] = {l: m["%s.self_s" % l] / m["trace.wall_s"]
                                for l in tracer.SPAN_LAYERS}
        self.assertGreater(shares["koszul"]["linalg"], 0.5, shares["koszul"])
        self.assertGreater(shares["gauge"]["mc"] + shares["gauge"]["ainfinity"],
                           0.5, shares["gauge"])
        self.assertGreater(shares["certify"]["ainfinity"], 0.5, shares["certify"])
        for workload in ("koszul", "certify"):
            m = self.metrics(workload)
            for name in ZERO_MC + ["mc.self_s"]:
                self.assertEqual(m[name], 0, (workload, name))


class Clock(unittest.TestCase):
    def test_probe_clock_leaves_out_probe_time(self):
        import probe
        clock = probe.ProbeClock()
        clock.start()
        try:
            t = perf_counter()
            while perf_counter() - t < 0.35:
                pass
            raw, rel = clock.lap()
        finally:
            clock.stop()
        ticks = clock.samples[1:]
        self.assertGreaterEqual(len(ticks), 3)
        self.assertLess(raw, 0.35 + 0.01 - sum(ticks[:-1]))
        self.assertGreater(raw, 0.25)
        median = sorted(clock.samples)[len(clock.samples) // 2]
        self.assertAlmostEqual(rel * median / raw, 1.0, delta=0.5)


class Verdicts(unittest.TestCase):
    def test_wrong_expected_answer_fails_the_job(self):
        real = child.load_expected

        def wrong(workload):
            expected = real(workload)
            expected[0] = dict(expected[0], answer={"ok": False})
            return expected
        child.load_expected = wrong
        try:
            report = child.run_pass("koszul", 1, "plain")
        finally:
            child.load_expected = real
        errors = [j["error"] for j in report["jobs"]]
        self.assertIsNotNone(errors[0])
        self.assertEqual(errors[1:], [None] * (len(errors) - 1))

    def test_refuses_to_run_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(HERE, Path(tmp) / HERE.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(HERE.parent / "BENCHMARK.json", tmp)
            proc = subprocess.run(
                [sys.executable, str(Path(tmp) / HERE.name / "run.py"),
                 "--workload", "koszul", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=170)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")

    def test_expected_file_names_every_job_with_its_source(self):
        with open(HERE / "expected.json") as fh:
            doc = json.load(fh)
        self.assertEqual(sorted(doc), sorted(run.WORKLOADS))
        for workload, entries in doc.items():
            for e in entries:
                self.assertEqual(sorted(e), ["answer", "job", "note", "source"])
                self.assertIn(e["source"], ("math", "pinned"))


if __name__ == "__main__":
    unittest.main()
