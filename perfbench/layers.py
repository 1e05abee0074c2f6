"""The per-layer metric catalogue, filled from a recorder's roll-up.

Every traced run reports every name below; a layer a workload does not
touch reports 0 (``sim.*`` on the served workload, ``storage.backend.*``,
``serving.*`` and ``forms.*`` on the memory-backed simulations).  Times
named ``.s`` are self seconds: the layer's own work, not its callees'.
"""

from __future__ import annotations

from typing import Any

#: The repository's modules; a wrapped name's first component is its layer.
LAYERS = ("sim", "core", "cylog", "storage", "serving", "forms")

#: (name, unit) in report order; BENCHMARK.json lists the same names.
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("sim.behavior.calls", "count"),
    ("sim.behavior.s", "s"),
    ("sim.interest.hit_ratio", "ratio"),
    ("core.step.calls", "count"),
    ("core.step.s", "s"),
    ("core.register_worker.calls", "count"),
    ("core.register_worker.s", "s"),
    ("core.ledger.mark_eligible.calls", "count"),
    ("core.ledger.mark_eligible.s", "s"),
    ("core.ledger.revoke.calls", "count"),
    ("core.ledger.revoke.s", "s"),
    ("core.assignment.try_assign.calls", "count"),
    ("core.assignment.try_assign.s", "s"),
    ("core.assignment.skip_ratio", "ratio"),
    ("cylog.run.calls", "count"),
    ("cylog.run.s", "s"),
    ("cylog.add_facts.rows", "count"),
    ("cylog.retract.calls", "count"),
    ("cylog.retract.s", "s"),
    ("cylog.engine.rules_fired", "count"),
    ("cylog.engine.tuples_derived", "count"),
    ("cylog.engine.tuples_joined", "count"),
    ("cylog.engine.index_hits", "count"),
    ("cylog.engine.full_scans", "count"),
    ("cylog.engine.tuples_retracted", "count"),
    ("storage.insert.calls", "count"),
    ("storage.insert.s", "s"),
    ("storage.update.calls", "count"),
    ("storage.delete.calls", "count"),
    ("storage.backend.mutations", "count"),
    ("storage.backend.s", "s"),
    ("storage.backend.bytes", "bytes"),
    ("storage.backend.bytes_per_write", "bytes"),
    ("storage.cache.hit_rate", "ratio"),
    ("storage.cache.evictions", "count"),
    ("forms.render_worker_page.calls", "count"),
    ("forms.render_worker_page.s", "s"),
    ("serving.apply_ops.calls", "count"),
    ("serving.apply_ops.s", "s"),
    ("serving.coalescing_x", "x"),
    ("serving.queue_depth_max", "count"),
    ("serving.rejected", "count"),
    ("serving.tick_latency_max_ms", "ms"),
    ("gen.lateness_p50_ms", "ms"),
    ("gen.lateness_max_ms", "ms"),
    *((f"layer.{layer}.s", "s") for layer in LAYERS),
    ("layer.other.s", "s"),
    ("trace.basis_s", "s"),
    ("trace.attributed_share", "ratio"),
    ("trace.overhead_s", "s"),
)

#: EngineStats counters reported as ``cylog.engine.<field>``.
ENGINE_COUNTERS = tuple(
    name.rsplit(".", 1)[1] for name, _ in PER_LAYER if name.startswith("cylog.engine.")
)


#: (wrapped-name prefix, calls metric, result-units metric); a ``<prefix>.s``
#: catalogue entry receives the prefix's self seconds.
_ROLL_UPS: tuple[tuple[str, str | None, str | None], ...] = (
    ("sim.behavior", "sim.behavior.calls", None),
    ("core.step", "core.step.calls", None),
    ("core.register_worker", "core.register_worker.calls", None),
    ("core.ledger.mark_eligible", "core.ledger.mark_eligible.calls", None),
    ("core.ledger.revoke", "core.ledger.revoke.calls", None),
    ("core.assignment.try_assign", "core.assignment.try_assign.calls", None),
    ("cylog.run", "cylog.run.calls", None),
    ("cylog.add_facts", None, "cylog.add_facts.rows"),
    ("cylog.retract", "cylog.retract.calls", None),
    ("storage.insert", "storage.insert.calls", None),
    ("storage.update", "storage.update.calls", None),
    ("storage.delete", "storage.delete.calls", None),
    ("storage.backend", "storage.backend.mutations", None),
    ("forms.render_worker_page", "forms.render_worker_page.calls", None),
    ("serving.apply_ops", "serving.apply_ops.calls", None),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def prefix_totals(by_name: dict[str, dict[str, float]], prefix: str) -> dict[str, float]:
    """Summed calls, self seconds and result units of every wrapped name
    equal to ``prefix`` or under it."""
    out = {"calls": 0, "s": 0.0, "units": 0}
    for name, entry in by_name.items():
        if name == prefix or name.startswith(prefix + "."):
            out["calls"] += entry["calls"]
            out["s"] += entry["self_s"]
            out["units"] += entry["units"]
    return out


def layer_self_s(by_name: dict[str, dict[str, float]]) -> dict[str, float]:
    """Self seconds per layer (first name component)."""
    out = {layer: 0.0 for layer in LAYERS}
    for name, entry in by_name.items():
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + entry["self_s"]
    return out


def per_layer_values(
    by_name: dict[str, dict[str, float]],
    basis_s: float,
    overhead_s: float,
    **extra: float,
) -> dict[str, float]:
    """Every catalogue value: roll-ups of a recorder's ``by_name`` table
    plus ``extra`` counters the caller read from the program's own stats.

    ``basis_s`` is the time the layer self times reconcile against (the
    traced episode's wall for simulations, the server's CPU time for the
    served workload); ``trace.attributed_share`` is the six layers' self
    time over it.
    """
    values = {name: 0.0 for name, _ in PER_LAYER}
    for prefix, calls_name, units_name in _ROLL_UPS:
        totals = prefix_totals(by_name, prefix)
        if calls_name:
            values[calls_name] = totals["calls"]
        if units_name:
            values[units_name] = totals["units"]
        if f"{prefix}.s" in values:
            values[f"{prefix}.s"] = totals["s"]

    layer_s = layer_self_s(by_name)
    attributed = 0.0
    for layer in LAYERS:
        values[f"layer.{layer}.s"] = layer_s.pop(layer, 0.0)
        attributed += values[f"layer.{layer}.s"]
    values["layer.other.s"] = sum(layer_s.values())
    values["trace.basis_s"] = basis_s
    values["trace.attributed_share"] = _ratio(attributed, basis_s)
    values["trace.overhead_s"] = overhead_s

    wants = prefix_totals(by_name, "sim.behavior.wants_task")["calls"]
    if "interest_declared" in extra:
        values["sim.interest.hit_ratio"] = _ratio(extra.pop("interest_declared"), wants)
    if "assignment_attempts" in extra:
        attempts = extra.pop("assignment_attempts")
        skipped = extra.pop("assignments_skipped")
        values["core.assignment.skip_ratio"] = _ratio(skipped, attempts + skipped)
    for name, value in extra.items():
        if name not in values:
            raise KeyError(f"{name} is not a per-layer metric")
        values[name] = value
    return values


def engine_counters(processors: list[Any]) -> dict[str, float]:
    """Summed EngineStats counters over the given CyLog processors."""
    out = {f"cylog.engine.{name}": 0 for name in ENGINE_COUNTERS}
    for processor in processors:
        stats = processor.stats.as_dict()
        for name in ENGINE_COUNTERS:
            out[f"cylog.engine.{name}"] += stats.get(name, 0)
    return out


def as_metrics(values: dict[str, float]) -> dict[str, dict[str, Any]]:
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
