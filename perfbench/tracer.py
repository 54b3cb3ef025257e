"""Outside-in per-layer tracing of anonlearn.

The tracer wraps public callables of the already-imported ``anonlearn``
modules from the outside; nothing under ``src/`` knows it exists.  Each hook
names a module and an attribute path.  A hook whose target is gone (deleted or
renamed by a refactor) is recorded as missing, and a metric all of whose hooks
are missing is reported absent instead of failing the run.

Times are wall-clock seconds summed over calls.  A span's self time is its
duration minus the time of the traced spans it called.  Pool workers are
forked from the traced process, inherit the wrappers, and write their counts
to ``worker-<pid>.json`` in the trace directory after every ``engine.run``;
``collect`` merges them.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import sys
import time
from multiprocessing.reduction import ForkingPickler
from pathlib import Path

# (bucket, module under anonlearn, attribute path).  Several hooks may feed
# one bucket; a bucket is present when at least one of its hooks attached.
HOOKS = (
    ("learners.StageLearner.act", "learners", "StageLearner.act"),
    ("learners.StageLearner.observe", "learners", "StageLearner.observe"),
    ("learners.StageLearner.end_stage", "learners", "StageLearner.end_stage"),
    ("learners.RegretMatcher.act", "learners", "RegretMatcher.act"),
    ("learners.RegretMatcher.observe", "learners", "RegretMatcher.observe"),
    ("learners.FixedAgent.act", "learners", "FixedAgent.act"),
    ("engine.apply_churn", "engine", "apply_churn"),
    ("engine.realize_meanfield", "engine", "realize_meanfield"),
    ("engine.realize_matching", "engine", "realize_matching"),
    ("games.payoff_matrix", "games", "ContributionGame.payoff_matrix"),
    ("games.payoff_matrix", "games", "MatrixGame.payoff_matrix"),
    ("games.build_game", "engine", "build_game"),
    ("engine.stage_metrics", "engine", "measure_stage_rho"),
    ("engine.stage_metrics", "engine", "distance_from_equilibrium"),
    ("engine.stage_metrics", "engine", "best_reply_fraction"),
    ("dynamics.best_reply_set", "dynamics", "best_reply_set"),
    ("engine.build_population", "engine", "build_population"),
    ("engine.run", "engine", "run"),
    ("engine.to_csv", "engine", "RunTrace.to_csv"),
    ("engine.run_many", "engine", "run_many"),
    ("config.load_experiment", "config", "load_experiment"),
)

# Per-layer metrics: (name, unit, better, source, the end-to-end metric and
# workload it should move).  A source is (bucket, field) with field one of
# calls / s / self_s, or ("derived", key) for a count kept by a probe below.
METRICS = (
    ("learners.StageLearner.act_calls", "count", "lower",
     ("learners.StageLearner.act", "calls"),
     "wall_ref_s, agent_rounds_per_ref_s on fig1_meanfield_grid, fig2_matching_pool, large_n_churn"),
    ("learners.StageLearner.act_s", "s", "lower",
     ("learners.StageLearner.act", "s"),
     "wall_ref_s, agent_rounds_per_ref_s on fig1_meanfield_grid, fig2_matching_pool, large_n_churn"),
    ("learners.StageLearner.observe_calls", "count", "lower",
     ("learners.StageLearner.observe", "calls"),
     "wall_ref_s, agent_rounds_per_ref_s on fig1_meanfield_grid, fig2_matching_pool, large_n_churn"),
    ("learners.StageLearner.observe_s", "s", "lower",
     ("learners.StageLearner.observe", "s"),
     "wall_ref_s, agent_rounds_per_ref_s on fig1_meanfield_grid, fig2_matching_pool, large_n_churn"),
    ("learners.RegretMatcher.act_calls", "count", "lower",
     ("learners.RegretMatcher.act", "calls"), "wall_ref_s on regret_meanfield"),
    ("learners.RegretMatcher.act_s", "s", "lower",
     ("learners.RegretMatcher.act", "s"), "wall_ref_s on regret_meanfield"),
    ("learners.RegretMatcher.observe_calls", "count", "lower",
     ("learners.RegretMatcher.observe", "calls"), "wall_ref_s on regret_meanfield"),
    ("learners.RegretMatcher.observe_s", "s", "lower",
     ("learners.RegretMatcher.observe", "s"), "wall_ref_s on regret_meanfield"),
    ("learners.FixedAgent.act_calls", "count", "lower",
     ("learners.FixedAgent.act", "calls"), "wall_ref_s on large_n_churn"),
    ("learners.FixedAgent.act_s", "s", "lower",
     ("learners.FixedAgent.act", "s"), "wall_ref_s on large_n_churn"),
    ("engine.apply_churn_calls", "count", "lower",
     ("engine.apply_churn", "calls"), "wall_ref_s on large_n_churn"),
    ("engine.apply_churn_s", "s", "lower",
     ("engine.apply_churn", "s"), "wall_ref_s on large_n_churn"),
    ("engine.agents_churned", "count", "lower",
     ("derived", "engine.agents_churned"), "wall_ref_s on large_n_churn"),
    ("learners.base_switches", "count", "lower",
     ("derived", "learners.base_switches"),
     "none (exact behaviour count: moves only if learning changes)"),
    ("learners.stage_ends", "count", "lower",
     ("learners.StageLearner.end_stage", "calls"),
     "none (exact behaviour count: moves only if learning changes)"),
    ("engine.realize_meanfield_calls", "count", "lower",
     ("engine.realize_meanfield", "calls"), "wall_ref_s on large_n_churn, fig1_meanfield_grid"),
    ("engine.realize_meanfield_s", "s", "lower",
     ("engine.realize_meanfield", "s"), "wall_ref_s on large_n_churn, fig1_meanfield_grid"),
    ("engine.realize_matching_calls", "count", "lower",
     ("engine.realize_matching", "calls"), "wall_ref_s on fig2_matching_pool"),
    ("engine.realize_matching_s", "s", "lower",
     ("engine.realize_matching", "s"), "wall_ref_s on fig2_matching_pool"),
    ("games.payoff_matrix_calls", "count", "lower",
     ("games.payoff_matrix", "calls"), "wall_ref_s on meanfield workloads (one call per round today)"),
    ("games.build_game_s", "s", "lower",
     ("games.build_game", "s"), "setup_s"),
    ("engine.stage_metrics_s", "s", "lower",
     ("engine.stage_metrics", "s"), "none (under 1% everywhere)"),
    ("dynamics.best_reply_set_calls", "count", "lower",
     ("dynamics.best_reply_set", "calls"), "none (under 1% everywhere)"),
    ("dynamics.best_reply_set_s", "s", "lower",
     ("dynamics.best_reply_set", "s"), "none (under 1% everywhere)"),
    ("engine.build_population_s", "s", "lower",
     ("engine.build_population", "s"), "wall_ref_s on large_n_churn"),
    ("engine.run.self_s", "s", "lower",
     ("engine.run", "self_s"), "wall_ref_s on large_n_churn"),
    ("engine.to_csv_s", "s", "lower",
     ("engine.to_csv", "s"), "wall_ref_s on fig1_meanfield_grid, fig2_matching_pool"),
    ("engine.to_csv_bytes", "B", "lower",
     ("derived", "engine.to_csv_bytes"), "wall_ref_s on fig1_meanfield_grid, fig2_matching_pool"),
    ("cli.write_s", "s", "lower",
     ("derived", "cli.write_s"), "wall_ref_s on fig1_meanfield_grid, fig2_matching_pool"),
    ("engine.ship_bytes", "B", "lower",
     ("derived", "engine.ship_bytes"), "peak_rss_mb on fig2_matching_pool"),
    ("engine.ship_s", "s", "lower",
     ("derived", "engine.ship_s"), "peak_rss_mb on fig2_matching_pool"),
    ("config.load_experiment_s", "s", "lower",
     ("config.load_experiment", "s"), "setup_s"),
)

class Tracer:
    """Counts and times calls into anonlearn; one per traced process."""

    def __init__(self, trace_dir):
        self.trace_dir = Path(trace_dir)
        self.owner = os.getpid()
        self.buckets: dict[str, list] = {}  # bucket -> [calls, s, self_s]
        self.derived: dict[str, float] = {}
        self.broken: set[str] = set()  # derived counts whose probe failed
        self.missing: list[str] = []  # hook targets not found
        self._stack = [0.0]  # child-time accumulators of the open spans

    # -- installation -------------------------------------------------------

    def install(self):
        for bucket, module, attr in HOOKS:
            try:
                self._hook(bucket, importlib.import_module(f"anonlearn.{module}"), attr)
            except (ImportError, AttributeError, TypeError):
                self.missing.append(f"{module}.{attr}")
        os.register_at_fork(after_in_child=self._reset)

    def _hook(self, bucket, module, attr):
        owner_name, _, name = attr.rpartition(".")
        target = getattr(module, owner_name) if owner_name else module
        raw = inspect.getattr_static(target, name)
        kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
        fn = raw.__func__ if kind else raw
        if not callable(fn):
            raise TypeError(f"{attr} is not callable")
        counters = self.buckets.setdefault(bucket, [0, 0.0, 0.0])
        wrapped = self._wrap(counters, fn, *PROBES.get(bucket, (None, None, ())))
        if owner_name:
            setattr(target, name, kind(wrapped) if kind else wrapped)
            return
        # A module-level function may be re-exported (``from .engine import
        # run_many``); replace every binding of the same object.
        for modname, mod in list(sys.modules.items()):
            if modname == "anonlearn" or modname.startswith("anonlearn."):
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapped)

    def _wrap(self, counters, fn, before, after, keys):
        stack = self._stack
        clock = time.perf_counter

        def timed(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                counters[0] += 1
                counters[1] += dt
                counters[2] += dt - child
                stack[-1] += dt

        if before is None and after is None:
            return timed

        def probed(*args, **kwargs):
            token = self._probe(keys, before, args) if before else None
            result = timed(*args, **kwargs)
            if after:
                self._probe(keys, after, args, token, result)
            return result

        return probed

    def _probe(self, keys, fn, *args):
        try:
            return fn(self, *args)
        except Exception:  # a refactor changed what the probe looks at
            self.broken.update(keys)
            return None

    # -- probes for derived counts (listed in PROBES below) ---------------------

    def _add(self, key, value):
        self.derived[key] = self.derived.get(key, 0) + value

    def _base_before(self, args):
        return args[0].base

    def _base_after(self, args, before, _result):
        self._add("learners.base_switches", int(args[0].base != before))

    def _agents_before(self, args):
        return list(args[0].agents)

    def _agents_after(self, args, before, _result):
        after = args[0].agents
        self._add("engine.agents_churned", sum(a is not b for a, b in zip(before, after)))

    def _csv_after(self, args, _token, _result):
        self._add("engine.to_csv_bytes", os.path.getsize(args[1]))

    def _ship_after(self, _args, _token, traces):
        # The pickle round trip a pool worker's result takes to reach the parent.
        for trace in traces:
            t0 = time.perf_counter()
            data = ForkingPickler.dumps(trace)
            ForkingPickler.loads(data)
            self._add("engine.ship_s", time.perf_counter() - t0)
            self._add("engine.ship_bytes", len(data))

    def _flush_worker(self, _args, _token, _result):
        if os.getpid() != self.owner:
            path = self.trace_dir / f"worker-{os.getpid()}.json"
            path.write_text(json.dumps(self.state()), encoding="utf-8")

    def _reset(self):
        for counters in self.buckets.values():
            counters[:] = [0, 0.0, 0.0]
        self.derived.clear()
        self._stack[:] = [0.0]

    # -- results ---------------------------------------------------------------

    def state(self) -> dict:
        return {
            "buckets": self.buckets,
            "derived": self.derived,
            "broken": sorted(self.broken),
        }

    def collect(self) -> dict:
        """This process's counts plus those every pool worker wrote."""
        total = json.loads(json.dumps(self.state()))
        for path in sorted(self.trace_dir.glob("worker-*.json")):
            part = json.loads(path.read_text(encoding="utf-8"))
            for bucket, counters in part["buckets"].items():
                mine = total["buckets"].setdefault(bucket, [0, 0.0, 0.0])
                for i, v in enumerate(counters):
                    mine[i] += v
            for key, v in part["derived"].items():
                total["derived"][key] = total["derived"].get(key, 0) + v
            total["broken"] = sorted(set(total["broken"]) | set(part["broken"]))
        total["missing"] = self.missing
        return total


# bucket -> (probe before the call, probe after it, derived keys they feed)
PROBES = {
    "learners.StageLearner.end_stage":
        (Tracer._base_before, Tracer._base_after, ("learners.base_switches",)),
    "engine.apply_churn":
        (Tracer._agents_before, Tracer._agents_after, ("engine.agents_churned",)),
    "engine.to_csv": (None, Tracer._csv_after, ("engine.to_csv_bytes",)),
    # cli.write_s (set by child.py) is cli.main minus run_many and shipping.
    "engine.run_many":
        (None, Tracer._ship_after, ("engine.ship_bytes", "engine.ship_s", "cli.write_s")),
    "engine.run": (None, Tracer._flush_worker, ("trace.worker_flush",)),
}
# derived count -> the hook bucket it needs
DERIVED_NEEDS = {key: bucket for bucket, (_, _, keys) in PROBES.items() for key in keys}


def per_layer(state: dict) -> tuple[dict, list]:
    """Metric values from collected counts, and the names reported absent.

    An absent metric (its hooks are all missing, or its probe broke) reads 0
    so that every per-layer name is always present in the result.
    """
    values, absent = {}, []
    broken = set(state["broken"])
    for name, unit, _better, (source, field), _moves in METRICS:
        if source == "derived":
            present = DERIVED_NEEDS[field] in state["buckets"] and field not in broken
            value = state["derived"].get(field, 0) if present else 0
        else:
            counters = state["buckets"].get(source)
            present = counters is not None
            value = counters[("calls", "s", "self_s").index(field)] if present else 0
        if not present:
            absent.append(name)
        values[name] = {"value": value, "unit": unit}
    return values, absent
