"""Every ventrc name that the benchmark under ventbench/ wraps or imports exists,
and so does every method, attribute and argument position it uses on them.

The benchmark is kept apart from the package, so a rename or deletion in
ventrc would otherwise only show when a traced benchmark run fails.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from ventrc.control_rt import IntegralController, benchmark_controller_tf
from ventrc.harness import ExperimentSpec, compare_runs, run_experiment
from ventrc.lti import evaluate
from ventrc.plant import VentilatorPlant, load_scenario, reference_profile
from ventrc.rc_design import check_stability, default_stability_grid, design_pipeline
from ventrc.svg import line_plot
from ventrc.sysid import MultisineSpec, average_frf, estimate_frf

VENTBENCH = Path(__file__).resolve().parent.parent / "ventbench"


def traced_targets():
    # spans.py imports only the standard library, so loading it is cheap
    spec = importlib.util.spec_from_file_location("ventbench_spans", VENTBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def worker_constant(name):
    tree = ast.parse((VENTBENCH / "worker.py").read_text())
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == name for t in node.targets))


def worker_imports():
    tree = ast.parse((VENTBENCH / "worker.py").read_text())
    return [(node.module, alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ventrc"
            for alias in node.names]


TARGETS = traced_targets()


@pytest.mark.parametrize("name, module, attr, cls, record", TARGETS,
                         ids=[target[0] for target in TARGETS])
def test_traced_target_resolves(name, module, attr, cls, record):
    owner = importlib.import_module(module)
    if cls is not None:
        owner = getattr(owner, cls)
    assert callable(getattr(owner, attr))


@pytest.mark.parametrize("module, name", worker_imports())
def test_worker_import_exists(module, name):
    owner = importlib.import_module(module)
    assert hasattr(owner, name) or importlib.util.find_spec(f"{module}.{name}") is not None


def test_worker_design_path(tmp_path):
    # worker.design_filtersets, step by step
    grid = default_stability_grid()
    frfs, periods = {}, {}
    for name in worker_constant("BUILTIN"):
        scenario, circuit = load_scenario(name)
        controller = benchmark_controller_tf(sample_time=circuit.sample_time)
        loop = VentilatorPlant(scenario, circuit).closed_form_tf().cascade(controller)
        frfs[name] = evaluate(loop.feedback_complementary(), grid)
        periods[name] = len(reference_profile(scenario, circuit.sample_time))
    filterset, report = design_pipeline(frfs, average_frf(frfs.values()), period_n=periods["adult"])
    report.save_csv(tmp_path / "design_report.csv")
    assert (tmp_path / "design_report.csv").stat().st_size > 0
    assert filterset.with_period(periods["baby"]).period_n == periods["baby"]
    # read by the sysid.fit_rational span
    assert len(filterset.t_fit.fit_residual_history) > 0


def test_worker_run_path(tmp_path):
    # worker.closed_loop_round and the run_experiment span, on the
    # limited_noisy workload's run inputs
    log = run_experiment(ExperimentSpec(
        scenario="baby", mode="pid", breaths=2, output_limits=tuple(worker_constant("LIMITS")),
        measurement_noise_rms=worker_constant("NOISE_RMS")))
    assert log.mode == "pid"
    for name in worker_constant("LOG_FIELDS"):
        assert np.shape(getattr(log, name)) == log.reference.shape
    compare_runs(log, log).save_csv(tmp_path / "comparison.csv")
    assert (tmp_path / "comparison.csv").stat().st_size > 0


def test_span_hooks_read_existing_state():
    ctrl = IntegralController()
    ctrl.step(1.0)
    assert ctrl.windup_active is False
    spec = MultisineSpec()
    assert (spec.periods_recorded + spec.periods_discarded) * spec.period_samples > 0


@pytest.mark.parametrize("fn, position, name", [
    (estimate_frf, 3, "excitation"),
    (check_stability, 3, "frfs"),
    (line_plot, 1, "path"),
])
def test_span_hooks_find_their_argument(fn, position, name):
    # the hooks take this argument by position, or else by name
    assert list(inspect.signature(fn).parameters)[position] == name
