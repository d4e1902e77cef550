"""Report generation: turn experiment results into Markdown/terminal output.

The EXPERIMENTS.md of this repository is (re)generated from the structures in
this module: every sweep experiment contributes a table of mean broadcast
times plus the fitted growth exponents, and the coupling and fairness
experiments contribute their dedicated tables.
"""

from __future__ import annotations

import hashlib
import html as _html
from typing import Any, Dict, List, Optional, Sequence

from ..analysis.statistics import summarize_trials
from ..analysis.tables import format_float, format_markdown_table, format_table
from ..store import (
    SweepJournal,
    cell_key,
    resolve_store,
    resolve_sweep_plans,
    sweep_payload,
)
from ..theory.predictions import PAPER_PREDICTIONS, Prediction
from .config import ExperimentConfig, scaled_sizes
from .coupling_experiment import CouplingExperimentResult, coupling_cell
from .fairness_experiment import FairnessExperimentResult, fairness_cell
from .runner import CellResult, ExperimentResult

__all__ = [
    "experiment_table",
    "experiment_markdown_section",
    "coupling_markdown_section",
    "fairness_markdown_section",
    "claims_for_experiment",
    "result_from_store",
    "experiment_markdown_section_from_store",
    "coupling_result_from_store",
    "fairness_result_from_store",
    "report_section_ids",
    "store_report_payload",
    "report_fingerprint",
    "render_report_html",
]

#: Non-sweep report sections served alongside the registry experiments.
REPORT_EXTRA_SECTIONS = ("coupling", "fairness")


def report_section_ids() -> List[str]:
    """Every report section id: registry experiments plus coupling/fairness."""
    from .registry import list_experiment_ids

    return list_experiment_ids() + list(REPORT_EXTRA_SECTIONS)


def claims_for_experiment(result: ExperimentResult) -> List[Prediction]:
    """The paper predictions attached to an experiment configuration."""
    wanted = set(result.config.claim_ids)
    return [p for p in PAPER_PREDICTIONS if p.claim_id in wanted]


def _pivot_rows(result: ExperimentResult) -> List[List[object]]:
    """One row per sweep size, one column per protocol (mean broadcast time)."""
    labels = result.protocol_labels()
    sizes = sorted({cell.size_parameter for cell in result.cells})
    rows: List[List[object]] = []
    for size in sizes:
        cells = {c.protocol_label: c for c in result.cells if c.size_parameter == size}
        any_cell = next(iter(cells.values()))
        row: List[object] = [size, any_cell.num_vertices]
        for label in labels:
            cell = cells.get(label)
            if cell is None or cell.mean_time is None:
                row.append(None)
            else:
                row.append(cell.mean_time)
        rows.append(row)
    return rows


def experiment_table(result: ExperimentResult, *, markdown: bool = False) -> str:
    """Render the size-by-protocol mean broadcast-time table."""
    labels = result.protocol_labels()
    headers = ["size", "n"] + [f"mean T ({label})" for label in labels]
    rows = _pivot_rows(result)
    if markdown:
        return format_markdown_table(headers, rows)
    return format_table(headers, rows, title=result.config.title)


def _growth_lines(result: ExperimentResult) -> List[str]:
    """Per-protocol growth-exponent and best-fit summaries."""
    lines = []
    for label in result.protocol_labels():
        exponent = result.growth_exponent(label)
        fit = result.best_fit(
            label,
            candidates=["1", "log n", "n", "n log n", "n^(2/3)", "n^(2/3) log n"],
        )
        if exponent is None or fit is None:
            lines.append(f"* `{label}`: insufficient completed data for a growth fit")
            continue
        lines.append(
            f"* `{label}`: measured power-law exponent "
            f"{format_float(exponent)} ; best-fitting model `{fit.growth}` "
            f"(relative RMSE {format_float(fit.relative_rmse)})"
        )
    return lines


def experiment_markdown_section(result: ExperimentResult) -> str:
    """Full Markdown section for one sweep experiment."""
    config = result.config
    lines = [
        f"### `{config.experiment_id}` — {config.title}",
        "",
        f"*Paper reference*: {config.paper_reference}.",
        "",
        config.description,
        "",
    ]
    claims = claims_for_experiment(result)
    if claims:
        lines.append("Paper claims checked:")
        lines.extend(f"* {claim.describe()}" for claim in claims)
        lines.append("")
    lines.append(experiment_table(result, markdown=True))
    lines.append("")
    lines.append("Measured growth:")
    lines.extend(_growth_lines(result))
    if config.notes:
        lines.extend(["", f"Notes: {config.notes}"])
    lines.append("")
    return "\n".join(lines)


def result_from_store(
    config: ExperimentConfig,
    store,
    *,
    base_seed: int = 0,
    sizes: Optional[Sequence[int]] = None,
    trials: Optional[int] = None,
    dynamics=None,
    strict: bool = True,
) -> ExperimentResult:
    """Assemble an :class:`ExperimentResult` purely from cached cells.

    Derives the same cell plans :func:`~repro.experiments.runner.run_experiment`
    would execute (building graphs is cheap; only the simulations are
    expensive) and fetches each plan's trial set from the store — zero
    simulation work, so figures and tables regenerate from a warm store in
    milliseconds.  ``store`` accepts anything
    :func:`~repro.store.resolve_store` does, including a ``repro store
    serve`` URL — dashboards and notebooks can pull cached cells without a
    filesystem mount.  With ``strict=True`` (default) a missing cell raises
    ``KeyError`` naming every absent plan; with ``strict=False`` missing
    cells are skipped, yielding a partial (but honest) result.
    """
    store_obj = resolve_store(store)
    if store_obj is None:
        raise ValueError("result_from_store needs an enabled result store")
    result = ExperimentResult(config=config, base_seed=base_seed)
    missing: List[str] = []
    for sp in _store_sweep_plans(
        config,
        store_obj,
        base_seed=base_seed,
        sizes=sizes,
        trials=trials,
        dynamics=dynamics,
    ):
        trial_set = store_obj.get_trial_set(sp.plan.key)
        if trial_set is None:
            missing.append(
                f"{config.experiment_id} size={sp.size_parameter} "
                f"protocol={sp.protocol_label} key={sp.plan.key[:16]}"
            )
            continue
        result.cells.append(
            CellResult(
                experiment_id=config.experiment_id,
                size_parameter=sp.size_parameter,
                num_vertices=int(sp.plan.graph.num_vertices),
                protocol_label=sp.protocol_label,
                protocol_name=sp.spec.name,
                trials=trial_set,
                summary=summarize_trials(trial_set),
            )
        )
    if missing and strict:
        raise KeyError(
            "result store is missing "
            f"{len(missing)} cell(s); run the sweep with --store first:\n  "
            + "\n  ".join(missing)
        )
    return result


def _store_sweep_plans(
    config: ExperimentConfig,
    store_obj,
    *,
    base_seed: int,
    sizes: Optional[Sequence[int]] = None,
    trials: Optional[int] = None,
    dynamics=None,
):
    """Resolve a sweep's cell plans against a store's journaled manifest.

    The manifest of the sweep's own journal (when one exists and its builder
    specs still match) lets the plans resolve from trusted fingerprints,
    so a warm report derives every key without constructing a single graph.
    """
    sweep = tuple(sizes) if sizes is not None else config.sizes
    num_trials = int(trials) if trials is not None else config.trials
    journal = SweepJournal(
        store_obj,
        sweep_payload(
            config,
            base_seed=base_seed,
            sizes=sweep,
            trials=num_trials,
            dynamics=dynamics,
        ),
    )
    manifest_event = journal.last_manifest()
    manifest = manifest_event.get("cells") if manifest_event is not None else None
    return resolve_sweep_plans(
        config,
        base_seed=base_seed,
        sizes=sweep,
        trials=num_trials,
        dynamics=dynamics,
        manifest=manifest,
    )


def experiment_markdown_section_from_store(
    config: ExperimentConfig, store, **kwargs
) -> str:
    """Markdown section for one experiment, read straight from the store."""
    return experiment_markdown_section(result_from_store(config, store, **kwargs))


def coupling_result_from_store(
    store, *, base_seed: int = 0, **cell_kwargs
) -> CouplingExperimentResult:
    """Load the coupling experiment's cached document cell — zero simulation.

    Raises ``KeyError`` naming the absent document when the store has no
    cached run for these parameters (mirroring :func:`result_from_store`).
    """
    store_obj = resolve_store(store)
    if store_obj is None:
        raise ValueError("coupling_result_from_store needs an enabled result store")
    cell = coupling_cell(base_seed=base_seed, **cell_kwargs)
    key = cell_key(cell)
    document = store_obj.get_document(key, kind="coupling")
    if document is None:
        raise KeyError(
            "result store is missing the coupling document cell; run "
            f"`repro coupling --store` first:\n  coupling key={key[:16]}"
        )
    return CouplingExperimentResult.from_dict(document)


def fairness_result_from_store(
    store, *, base_seed: int = 0, **cell_kwargs
) -> FairnessExperimentResult:
    """Load the fairness experiment's cached document cell — zero simulation.

    Raises ``KeyError`` naming the absent document when the store has no
    cached run for these parameters (mirroring :func:`result_from_store`).
    """
    store_obj = resolve_store(store)
    if store_obj is None:
        raise ValueError("fairness_result_from_store needs an enabled result store")
    cell = fairness_cell(base_seed=base_seed, **cell_kwargs)
    key = cell_key(cell)
    document = store_obj.get_document(key, kind="fairness")
    if document is None:
        raise KeyError(
            "result store is missing the fairness document cell; run "
            f"`repro fairness --store` first:\n  fairness key={key[:16]}"
        )
    return FairnessExperimentResult.from_dict(document)


def coupling_markdown_section(result: CouplingExperimentResult) -> str:
    """Markdown section for the coupling/congestion experiment."""
    rows = result.table_rows()
    headers = list(rows[0].keys()) if rows else []
    lines = [
        "### `coupling-congestion` — The Section-5 coupling, Lemmas 13/14",
        "",
        "Coupled push / visit-exchange runs on random regular graphs. Lemma 13 "
        "(`tau_u <= C_u(t_u)`) is checked exactly on every vertex of every run; "
        "the congestion ratio `max_u C_u(t_u) / T_visitx` is the quantity "
        "Theorem 10 bounds by a constant.",
        "",
    ]
    if rows:
        lines.append(format_markdown_table(headers, [[row[h] for h in headers] for row in rows]))
    lines.append("")
    lines.append(
        f"Lemma 13 held in all runs: **{'yes' if result.lemma13_always_holds() else 'NO'}**; "
        f"largest congestion ratio observed: {format_float(result.max_congestion_ratio())}."
    )
    lines.append("")
    return "\n".join(lines)


def _json_value(value: Any) -> Any:
    """Coerce a table cell to a plain JSON scalar (numpy types included)."""
    if value is None or isinstance(value, (str, bool)):
        return value
    if isinstance(value, int):
        return int(value)
    try:
        as_float = float(value)
    except (TypeError, ValueError):
        return str(value)
    return int(as_float) if as_float.is_integer() else as_float


def _report_plan_keys(
    section: str,
    store_obj,
    *,
    base_seed: int,
    trials: Optional[int],
    scale: float,
    dynamics=None,
) -> List[str]:
    """Every store key a report section reads, derived without simulating."""
    if section == "coupling":
        return [cell_key(coupling_cell(base_seed=base_seed))]
    if section == "fairness":
        return [cell_key(fairness_cell(base_seed=base_seed))]
    from .registry import get_experiment

    config = get_experiment(section)
    sizes = scaled_sizes(config.sizes, scale) if scale != 1.0 else None
    return [
        sp.plan.key
        for sp in _store_sweep_plans(
            config,
            store_obj,
            base_seed=base_seed,
            sizes=sizes,
            trials=trials,
            dynamics=dynamics,
        )
    ]


def report_fingerprint(
    store,
    *,
    sections: Optional[Sequence[str]] = None,
    base_seed: int = 0,
    trials: Optional[int] = None,
    scale: float = 1.0,
    dynamics=None,
) -> str:
    """Fingerprint of the cell set underlying a report.

    Hashes, per section, every cell key the report would read together with
    the stored object's size (or an absence marker).  Objects are immutable
    and content-addressed, so presence plus size pins the report's inputs
    exactly: the fingerprint changes iff a cell the report reads appears,
    disappears, or is replaced.  Computing it performs no simulation and —
    on a warm manifest — no graph construction, so it is cheap enough to
    serve as an HTTP ETag validator.
    """
    store_obj = resolve_store(store)
    if store_obj is None:
        raise ValueError("report_fingerprint needs an enabled result store")
    wanted = list(sections) if sections is not None else report_section_ids()
    digest = hashlib.sha256()
    digest.update(b"repro-report-v1\0")
    for section in wanted:
        for key in _report_plan_keys(
            section,
            store_obj,
            base_seed=base_seed,
            trials=trials,
            scale=scale,
            dynamics=dynamics,
        ):
            size = store_obj.backend.object_size(key)
            marker = "absent" if size is None else str(int(size))
            digest.update(f"{section}:{key}:{marker}\n".encode("utf-8"))
    return digest.hexdigest()


def store_report_payload(
    store,
    *,
    sections: Optional[Sequence[str]] = None,
    base_seed: int = 0,
    trials: Optional[int] = None,
    scale: float = 1.0,
    dynamics=None,
) -> Dict[str, Any]:
    """Assemble the full report as a JSON-safe payload, purely from the store.

    Each requested section resolves its cell plans (manifest-trusted, so a
    warm store needs zero graph constructions) and reads cached cells only —
    zero simulation.  Sections whose cells are absent come back with
    ``status: "missing"`` and the runner command that would fill them; the
    report never fails outright because one sweep has not run yet.
    """
    store_obj = resolve_store(store)
    if store_obj is None:
        raise ValueError("store_report_payload needs an enabled result store")
    wanted = list(sections) if sections is not None else report_section_ids()
    from .registry import get_experiment

    rendered: List[Dict[str, Any]] = []
    for section in wanted:
        entry: Dict[str, Any] = {"id": section}
        try:
            if section == "coupling":
                coupling = coupling_result_from_store(store_obj, base_seed=base_seed)
                entry["title"] = "Coupling / congestion (Lemmas 13/14)"
                entry["markdown"] = coupling_markdown_section(coupling)
                entry["rows"] = [
                    {k: _json_value(v) for k, v in row.items()}
                    for row in coupling.table_rows()
                ]
            elif section == "fairness":
                fairness = fairness_result_from_store(store_obj, base_seed=base_seed)
                entry["title"] = "Edge-usage fairness (Section 1)"
                entry["markdown"] = fairness_markdown_section(fairness)
                entry["rows"] = [
                    {k: _json_value(v) for k, v in row.items()}
                    for row in fairness.table_rows()
                ]
            else:
                config = get_experiment(section)
                sizes = scaled_sizes(config.sizes, scale) if scale != 1.0 else None
                result = result_from_store(
                    config,
                    store_obj,
                    base_seed=base_seed,
                    sizes=sizes,
                    trials=trials,
                    dynamics=dynamics,
                    strict=True,
                )
                labels = result.protocol_labels()
                entry["title"] = config.title
                entry["markdown"] = experiment_markdown_section(result)
                entry["columns"] = ["size", "n"] + [f"mean T ({label})" for label in labels]
                entry["rows"] = [
                    [_json_value(value) for value in row] for row in _pivot_rows(result)
                ]
            entry["status"] = "complete"
        except KeyError as exc:
            entry["status"] = "missing"
            entry["detail"] = str(exc.args[0]) if exc.args else str(exc)
        rendered.append(entry)
    return {
        "report": "repro-experiment-report",
        "params": {
            "sections": wanted,
            "base_seed": int(base_seed),
            "trials": None if trials is None else int(trials),
            "scale": float(scale),
            # "auto" pins existing report documents: it was the default
            # backend option.
            "backend": "auto",
        },
        "complete": all(entry["status"] == "complete" for entry in rendered),
        "sections": rendered,
        "fingerprint": report_fingerprint(
            store_obj,
            sections=wanted,
            base_seed=base_seed,
            trials=trials,
            scale=scale,
            dynamics=dynamics,
        ),
    }


_REPORT_CSS = (
    "body{font-family:sans-serif;margin:2rem auto;max-width:60rem;padding:0 1rem}"
    "pre{background:#f6f8fa;padding:0.8rem;overflow-x:auto}"
    ".status{font-size:0.7em;padding:0.15em 0.5em;border-radius:0.5em;"
    "vertical-align:middle}"
    ".status-complete{background:#dcffdc}.status-missing{background:#ffe0e0}"
    "code{word-break:break-all}"
)


def render_report_html(payload: Dict[str, Any]) -> str:
    """Render a :func:`store_report_payload` dict as a standalone HTML page.

    The output is a pure function of the payload — no timestamps, request
    counters or other per-render state — so two renders of the same cell set
    are bit-identical and conditional GETs can revalidate against the
    payload fingerprint alone.
    """
    params = payload.get("params", {})
    lines = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        "<title>repro experiment report</title>",
        f"<style>{_REPORT_CSS}</style>",
        "</head><body>",
        "<h1>Experiment report</h1>",
        "<p>Served from the result store: cached cells only, zero simulation.</p>",
        "<p>"
        + _html.escape(
            f"base_seed={params.get('base_seed')} trials={params.get('trials')} "
            f"scale={params.get('scale')} backend={params.get('backend')}"
        )
        + "</p>",
    ]
    for section in payload.get("sections", []):
        section_id = str(section.get("id", ""))
        status = str(section.get("status", "missing"))
        title = str(section.get("title") or section_id)
        lines.append(f'<section id="{_html.escape(section_id, quote=True)}">')
        lines.append(
            f"<h2>{_html.escape(title)} "
            f'<span class="status status-{_html.escape(status, quote=True)}">'
            f"{_html.escape(status)}</span></h2>"
        )
        markdown = section.get("markdown")
        if markdown:
            lines.append(f"<pre>{_html.escape(str(markdown))}</pre>")
        detail = section.get("detail")
        if detail:
            lines.append(f"<pre>{_html.escape(str(detail))}</pre>")
        lines.append("</section>")
    fingerprint = payload.get("fingerprint", "")
    lines.append(f"<p>cell-set fingerprint <code>{_html.escape(str(fingerprint))}</code></p>")
    lines.append("</body></html>")
    return "\n".join(lines) + "\n"


def fairness_markdown_section(result: FairnessExperimentResult) -> str:
    """Markdown section for the edge-usage fairness experiment."""
    rows = result.table_rows()
    headers = list(rows[0].keys()) if rows else []
    lines = [
        "### `fairness` — Local fairness of bandwidth use (Section 1)",
        "",
        "Per-edge usage distributions: all traversals of a stationary agent "
        "population versus all sampled push-pull exchanges. The agent "
        "distribution is near-uniform on every graph (small Gini coefficient), "
        "while push-pull starves the bridge edge of the double star — the "
        "paper's local-fairness argument made quantitative.",
        "",
    ]
    if rows:
        lines.append(format_markdown_table(headers, [[row[h] for h in headers] for row in rows]))
    lines.append("")
    return "\n".join(lines)
