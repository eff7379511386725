"""One measured invocation of the program: ``python3 child.py SPEC OUT TRACE``.

SPEC is a JSON file written by run.py that names a public entry point and
its arguments; OUT is the invocation's output directory; TRACE is 0 or 1.
The process writes ``result.json`` (and with TRACE=1 ``spans.json``) to OUT.

Untraced, the only hooks are three thin wrappers that cost nothing per
step: the first call of ``stepping.step`` (time of the first time step, and
the field it returns), every ``run`` call (end of the stepping phase, final
step index) and ``check_conditions`` (which guarantees were certified).

Traced, every name in TRACE_POINTS is wrapped where the calling module looks
it up, and each call becomes a span (name, start, end, parent) kept in
memory until the workload ends.  Forward FFT calls are counted at the
library boundary (numpy.fft, and scipy.fft if the program loaded it).
"""

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (module, attribute, span name).  Each attribute is the binding the calling
# module uses, so a call through it is a crossing between two modules.
TRACE_POINTS = (
    ("experiments", "run", "stepping.run"),
    ("experiments", "check_conditions", "stepping.check_conditions"),
    ("experiments", "save_snapshot", "grid.snapshot_write"),
    ("experiments", "count_bumps", "experiments.count_bumps"),
    ("config", "write_series", "config.series_write"),
    ("config", "load_symbol_csv", "config.load_symbol"),
    ("stepping", "check_conditions", "stepping.check_conditions"),
    ("stepping", "step", "stepping.step"),
    ("stepping", "_make_record", "stepping.record"),
    ("stepping", "assemble_rhs_array", "physics.rhs"),
    ("stepping", "discrete_energy", "energy.energy"),
    ("stepping", "lipschitz_constants", "physics.lipschitz"),
    ("stepping", "estimate_linf_norm", "spectral.linf_norm"),
    ("physics", "_apply_multiplier", "spectral.longrange"),
    ("physics", "multiplier_array", "spectral.multiplier"),
    ("energy", "_apply_multiplier", "spectral.longrange"),
    ("energy", "multiplier_array", "spectral.multiplier"),
)
FORWARD_FFTS = ("fft", "fft2", "fftn", "rfft", "rfft2", "rfftn")


class Tracer:
    def __init__(self):
        self.spans = []   # [name, start_ns, end_ns, parent index or -1]
        self.stack = []
        self.fft_calls = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.monotonic_ns

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()

        return traced

    def count(self, fn):
        calls, clock = self.fft_calls, time.monotonic_ns

        def counted(*args, **kwargs):
            calls.append(clock())
            return fn(*args, **kwargs)

        return counted


def patch_ffts(tracer, namespaces):
    """Count forward FFTs wherever a pacok module or an FFT package binds them."""
    import numpy.fft

    libraries = [numpy.fft] + ([sys.modules["scipy.fft"]] if "scipy.fft" in sys.modules else [])
    counted = {}   # id(original) -> counting wrapper
    for lib in libraries:
        for name in FORWARD_FFTS:
            fn = getattr(lib, name, None)
            if fn is None:
                continue
            if id(fn) not in counted:
                counted[id(fn)] = tracer.count(fn)
            setattr(lib, name, counted[id(fn)])
    for module in namespaces:
        for attr, value in list(vars(module).items()):
            if id(value) in counted:
                setattr(module, attr, counted[id(value)])


def main(spec_path, out_dir, trace):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    t0 = time.monotonic_ns()
    import pacok.cli
    from pacok import config, energy, experiments, physics, stepping
    import_ns = time.monotonic_ns() - t0
    if not os.path.abspath(pacok.cli.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        raise SystemExit(f"pacok imported from {pacok.cli.__file__}, not from this checkout")
    modules = {"config": config, "energy": energy, "experiments": experiments,
               "physics": physics, "stepping": stepping}

    tracer = Tracer() if trace else None
    if tracer:
        patch_ffts(tracer, modules.values())
        for module, attr, span in TRACE_POINTS:
            if hasattr(modules[module], attr):
                setattr(modules[module], attr, tracer.wrap(span, getattr(modules[module], attr)))

    probe = {"first_step": None, "run_end": None, "steps": None, "reports": []}

    inner_step = stepping.step

    def first_step(*args, **kwargs):
        probe["first_step"] = time.monotonic_ns()
        stepping.step = inner_step
        state = inner_step(*args, **kwargs)
        probe["first_field"] = state.phi.values
        return state

    stepping.step = first_step

    def on_run(fn):
        def run(*args, **kwargs):
            state, records = fn(*args, **kwargs)
            probe["run_end"] = time.monotonic_ns()
            probe["steps"] = state.step_index
            return state, records
        return run

    def on_check(fn):
        def check(*args, **kwargs):
            report = fn(*args, **kwargs)
            probe["reports"].append([bool(report.mpp_ok), bool(report.es_ok)])
            return report
        return check

    experiments.run = on_run(experiments.run)
    for module in (experiments, stepping):
        module.check_conditions = on_check(module.check_conditions)

    result = {}
    if spec["entry"] == "coarsening_run":
        outcome = experiments.coarsening_run(out_dir=out_dir, **spec["kwargs"])
        result["bump_count"] = outcome.bump_count
    else:
        code = pacok.cli.main(spec["argv"])
        if code != 0:
            raise SystemExit(f"pacok {' '.join(spec['argv'])} exited with {code}")
    if probe["first_step"] is None or probe["run_end"] is None:
        raise SystemExit("the workload never reached stepping.step / run")

    if spec.get("save_first_step"):
        import numpy as np

        np.save(os.path.join(out_dir, "first_step.npy"), probe["first_field"])
    result.update(
        import_ns=import_ns,
        first_step=probe["first_step"],
        run_end=probe["run_end"],
        steps=probe["steps"],
        reports=probe["reports"],
    )
    with open(os.path.join(out_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    if tracer:
        with open(os.path.join(out_dir, "spans.json"), "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "fft_calls": tracer.fft_calls}, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], sys.argv[3] == "1")
