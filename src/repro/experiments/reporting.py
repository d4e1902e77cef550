"""Report generation: turn experiment results into Markdown/terminal output.

The EXPERIMENTS.md of this repository is (re)generated from the structures in
this module: every sweep experiment contributes a table of mean broadcast
times plus the fitted growth exponents, and the coupling and fairness
experiments contribute their dedicated tables; every section checks its
declared paper claims in one claims table.

Every report path — ``repro report``, ``repro report --from-store`` and the
``/report`` endpoints — goes through one dispatch, :func:`_sections`, which
decides once whether a section is a registry sweep or a document cell and
yields its cell keys, its store load, its compute run and its Markdown/JSON
entry.
"""

from __future__ import annotations

import hashlib
import html as _html
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..analysis.claims import ClaimVerdict, evaluate_claim
from ..analysis.statistics import summarize_trials
from ..analysis.tables import format_float, format_markdown_table, format_table
from ..store import cell_key, resolve_store
from ..theory.predictions import GROWTH_CANDIDATES, PAPER_PREDICTIONS, Prediction
from .config import ExperimentConfig, sweep_sizes
from .coupling_experiment import CouplingExperimentResult, coupling_cell, run_coupling_experiment
from .fairness_experiment import FairnessExperimentResult, fairness_cell, run_fairness_experiment
from .runner import CellResult, ExperimentResult, journaled_sweep_plans, run_experiment

__all__ = [
    "experiment_table",
    "experiment_markdown_section",
    "coupling_markdown_section",
    "fairness_markdown_section",
    "claims_for_experiment",
    "claim_verdicts",
    "result_from_store",
    "coupling_result_from_store",
    "fairness_result_from_store",
    "report_section_ids",
    "REPORT_EXTRA_SECTIONS",
    "report_markdown",
    "run_report_sections",
    "store_report_payload",
    "report_fingerprint",
    "render_report_html",
]


#: The document sections by id: title, cell payload, loader, runner and
#: renderer.  The lambdas name their functions when called, so a rebound
#: module global (a tracer's wrapper, a test's patch) reaches every report path.
_DOCUMENTS: Dict[str, Tuple[str, Callable, Callable, Callable, Callable]] = {
    "coupling": (
        "Coupling / congestion (Lemmas 13/14)",
        coupling_cell,
        lambda store, **cell: coupling_result_from_store(store, **cell),
        lambda **options: run_coupling_experiment(**options),
        lambda result: coupling_markdown_section(result),
    ),
    "fairness": (
        "Edge-usage fairness (Section 1)",
        fairness_cell,
        lambda store, **cell: fairness_result_from_store(store, **cell),
        lambda **options: run_fairness_experiment(**options),
        lambda result: fairness_markdown_section(result),
    ),
}

#: Non-sweep report sections served alongside the registry experiments.
REPORT_EXTRA_SECTIONS = tuple(_DOCUMENTS)


def report_section_ids() -> List[str]:
    """Every report section id: registry experiments plus coupling/fairness."""
    from .registry import list_experiment_ids

    return list_experiment_ids() + list(REPORT_EXTRA_SECTIONS)


def claims_for_experiment(result) -> List[Prediction]:
    """The paper predictions a section declares: a sweep in its configuration,
    a coupling or fairness document in its class."""
    sweep = isinstance(result, ExperimentResult)
    wanted = set(result.config.claim_ids if sweep else result.claim_ids)
    return [p for p in PAPER_PREDICTIONS if p.claim_id in wanted]


def claim_verdicts(result) -> List[ClaimVerdict]:
    """Evaluate a section's declared claims on its cells (a document: on itself)."""
    source = result.cells if isinstance(result, ExperimentResult) else result
    return [evaluate_claim(claim, source) for claim in claims_for_experiment(result)]


def _claims_table(verdicts: Sequence[ClaimVerdict]) -> str:
    rows = [[v.claim.describe(), f"{format_float(v.statistic)} ({v.detail})",
             None if v.interval is None else "[{}, {}]".format(*map(format_float, v.interval)),
             f"**{v.verdict}**"] for v in verdicts]
    return format_markdown_table(["claim", "statistic", "95% interval", "verdict"], rows)


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
        fit = result.best_fit(label, candidates=GROWTH_CANDIDATES)
        if exponent is None or fit is None:
            lines.append(f"* `{label}`: insufficient completed data for a growth fit")
            continue
        lines.append(
            f"* `{label}`: measured power-law exponent "
            f"{format_float(exponent)} ; best-fitting model `{fit.growth}` "
            f"(relative RMSE {format_float(fit.relative_rmse)})"
        )
    return lines


def experiment_markdown_section(
    result: ExperimentResult, verdicts: Optional[Sequence[ClaimVerdict]] = None
) -> str:
    """Full Markdown section for one sweep experiment (``verdicts``: its
    :func:`claim_verdicts`, evaluated here when not given)."""
    config = result.config
    lines = [
        f"### `{config.experiment_id}` — {config.title}",
        "",
        f"*Paper reference*: {config.paper_reference}.",
        "",
        config.description,
        "",
    ]
    verdicts = claim_verdicts(result) if verdicts is None else verdicts
    if verdicts:
        lines.extend(["Paper claims checked:", "", _claims_table(verdicts), ""])
    lines.append(experiment_table(result, markdown=True))
    lines.append("")
    lines.append("Measured growth:")
    lines.extend(_growth_lines(result))
    if config.notes:
        lines.extend(["", f"Notes: {config.notes}"])
    lines.append("")
    return "\n".join(lines)


def _enabled_store(store, caller: str):
    """``store`` resolved to a :class:`~repro.store.ResultStore`; raises
    ``ValueError`` when it resolves to none."""
    store_obj = resolve_store(store)
    if store_obj is None:
        raise ValueError(f"{caller} needs an enabled result store")
    return store_obj


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
    store_obj = _enabled_store(store, "result_from_store")
    _, _, plans = journaled_sweep_plans(
        config, store_obj, base_seed=base_seed, sizes=sizes, trials=trials, dynamics=dynamics
    )
    return _sweep_result(config, store_obj, plans, base_seed=base_seed, strict=strict)


def _sweep_result(config, store_obj, plans, *, base_seed: int, strict: bool = True):
    """The :class:`ExperimentResult` of resolved sweep ``plans``, read from the
    store (see :func:`result_from_store`)."""
    result = ExperimentResult(config=config, base_seed=base_seed)
    missing: List[str] = []
    for sp in plans:
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


def _document_from_store(store, cell: Dict[str, Any], result_type):
    """Load a document section's cached cell — zero simulation.

    Raises ``KeyError`` naming the absent document and the command that
    stores it (mirroring :func:`result_from_store`).
    """
    kind = cell["document"]
    store_obj = _enabled_store(store, f"{kind}_result_from_store")
    key = cell_key(cell)
    document = store_obj.get_document(key, kind=kind)
    if document is None:
        raise KeyError(
            f"result store is missing the {kind} document cell; run "
            f"`repro report --only {kind} --store` first:\n  {kind} key={key[:16]}"
        )
    return result_type.from_dict(document)


def coupling_result_from_store(
    store, *, base_seed: int = 0, **cell_kwargs
) -> CouplingExperimentResult:
    """Load the coupling experiment's cached document cell — zero simulation."""
    cell = coupling_cell(base_seed=base_seed, **cell_kwargs)
    return _document_from_store(store, cell, CouplingExperimentResult)


def fairness_result_from_store(
    store, *, base_seed: int = 0, **cell_kwargs
) -> FairnessExperimentResult:
    """Load the fairness experiment's cached document cell — zero simulation."""
    cell = fairness_cell(base_seed=base_seed, **cell_kwargs)
    return _document_from_store(store, cell, FairnessExperimentResult)


def _document_markdown(heading: str, blurb: str, result) -> str:
    """A document section: its heading, blurb, claims table and ``table_rows()`` table."""
    rows = result.table_rows()
    headers = list(rows[0].keys()) if rows else []
    claims = _claims_table(claim_verdicts(result))
    lines = [heading, "", blurb, "", "Paper claims checked:", "", claims, ""]
    if rows:
        lines.append(format_markdown_table(headers, [[row[h] for h in headers] for row in rows]))
    return "\n".join(lines + ["", ""])


def coupling_markdown_section(result: CouplingExperimentResult) -> str:
    """Markdown section for the coupling/congestion experiment."""
    return _document_markdown(
        "### `coupling-congestion` — The Section-5 coupling, Lemmas 13/14",
        "Coupled push / visit-exchange runs on random regular graphs. Lemma 13 "
        "(`tau_u <= C_u(t_u)`) is checked exactly on every vertex of every run; "
        "the congestion ratio `max_u C_u(t_u) / T_visitx` is the quantity "
        "Theorem 10 bounds by a constant.",
        result,
    )


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


class _DocumentSection:
    """A document section: one cell, keyed, loaded, run and rendered through
    its :data:`_DOCUMENTS` row."""

    def __init__(self, section: str, base_seed: int) -> None:
        self.id = section
        self.base_seed = base_seed
        self.title, self.cell, self.loader, self.runner, self.render = _DOCUMENTS[section]

    def keys(self, store_obj) -> List[str]:
        return [cell_key(self.cell(base_seed=self.base_seed))]

    def load(self, store_obj):
        return self.loader(store_obj, base_seed=self.base_seed)

    def run(self, store, force: bool):
        return self.runner(base_seed=self.base_seed, store=store, force=force)

    def entry(self, result) -> Dict[str, Any]:
        return {
            "title": self.title,
            "markdown": self.render(result),
            "claims": [verdict.as_row() for verdict in claim_verdicts(result)],
            "rows": [
                {k: _json_value(v) for k, v in row.items()} for row in result.table_rows()
            ],
        }


class _SweepSection:
    """A registry sweep section: its plans resolved against the store's
    journaled manifest, its cells read or run by the sweep runner."""

    def __init__(
        self, section: str, base_seed: int, trials: Optional[int], scale: float, dynamics
    ) -> None:
        from .registry import get_experiment

        self.id = section
        self.config = get_experiment(section)
        sizes = sweep_sizes(self.config, scale)
        self.sweep = dict(base_seed=base_seed, sizes=sizes, trials=trials, dynamics=dynamics)
        self.plans = None

    def keys(self, store_obj) -> List[str]:
        _, _, self.plans = journaled_sweep_plans(self.config, store_obj, **self.sweep)
        return [sp.plan.key for sp in self.plans]

    def load(self, store_obj) -> ExperimentResult:
        """The cells of the plans :meth:`keys` resolved."""
        return _sweep_result(self.config, store_obj, self.plans, base_seed=self.sweep["base_seed"])

    def run(self, store, force: bool) -> ExperimentResult:
        return run_experiment(self.config, store=store, force=force, **self.sweep)

    def entry(self, result: ExperimentResult) -> Dict[str, Any]:
        verdicts = claim_verdicts(result)
        return {
            "title": self.config.title,
            "markdown": experiment_markdown_section(result, verdicts),
            "claims": [verdict.as_row() for verdict in verdicts],
            "columns": ["size", "n"] + [f"mean T ({label})" for label in result.protocol_labels()],
            "rows": [[_json_value(value) for value in row] for row in _pivot_rows(result)],
        }


def _sections(sections=None, *, base_seed=0, trials=None, scale=1.0, dynamics=None) -> list:
    """The report's sections (all of them when ``sections`` is None).

    The one place a section's kind is decided: a document cell or a registry
    sweep.  Each section has ``keys(store)``, the cell keys it reads;
    ``load(store)``, its result from those cells; ``run(store, force)``,
    its result through its runner; and ``entry(result)``, its Markdown and
    JSON fields.
    """
    wanted = list(sections) if sections is not None else report_section_ids()
    return [
        _DocumentSection(section, base_seed)
        if section in _DOCUMENTS
        else _SweepSection(section, base_seed, trials, scale, dynamics)
        for section in wanted
    ]


def _fingerprint(store_obj, section_keys: Sequence[Tuple[str, Sequence[str]]]) -> str:
    """Hash each ``(section, keys)`` key with its stored object's size."""
    digest = hashlib.sha256()
    digest.update(b"repro-report-v1\0")
    for section, keys in section_keys:
        for key in keys:
            size = store_obj.backend.object_size(key)
            marker = "absent" if size is None else str(int(size))
            digest.update(f"{section}:{key}:{marker}\n".encode("utf-8"))
    return digest.hexdigest()


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
    store_obj = _enabled_store(store, "report_fingerprint")
    chosen = _sections(sections, base_seed=base_seed, trials=trials, scale=scale, dynamics=dynamics)
    return _fingerprint(store_obj, [(section.id, section.keys(store_obj)) for section in chosen])


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

    Each requested section resolves its cell plans once (manifest-trusted,
    so a warm store needs zero graph constructions), reads cached cells only
    — zero simulation — and hashes the same keys into the payload's
    :func:`report_fingerprint`.  Sections whose cells are absent come back
    with ``status: "missing"`` and the command that would fill them; the
    report never fails outright because one sweep has not run yet.
    """
    store_obj = _enabled_store(store, "store_report_payload")
    chosen = _sections(sections, base_seed=base_seed, trials=trials, scale=scale, dynamics=dynamics)
    section_keys = []
    rendered: List[Dict[str, Any]] = []
    for section in chosen:
        section_keys.append((section.id, section.keys(store_obj)))
        entry: Dict[str, Any] = {"id": section.id}
        try:
            entry.update(section.entry(section.load(store_obj)))
            entry["status"] = "complete"
        except KeyError as exc:
            entry["status"] = "missing"
            entry["detail"] = str(exc.args[0]) if exc.args else str(exc)
        rendered.append(entry)
    return {
        "report": "repro-experiment-report",
        "params": {
            "sections": [section.id for section in chosen],
            "base_seed": int(base_seed),
            "trials": None if trials is None else int(trials),
            "scale": float(scale),
            # "auto" pins existing report documents: it was the default
            # backend option.
            "backend": "auto",
        },
        "complete": all(entry["status"] == "complete" for entry in rendered),
        "sections": rendered,
        "fingerprint": _fingerprint(store_obj, section_keys),
    }


def run_report_sections(sections=None, *, store=None, force=False, **options) -> List[str]:
    """Each section's Markdown, run through its runner.

    ``options`` are ``base_seed``, ``trials``, ``scale`` and ``dynamics`` as
    :func:`store_report_payload` takes them; ``store``/``force`` follow the
    runners' rules, so cached cells are read, not recomputed.
    """
    chosen = _sections(sections, **options)
    return [section.entry(section.run(store, force))["markdown"] for section in chosen]


def report_markdown(sections: Sequence[str]) -> str:
    """A ``repro report`` file: the report header, then each section's Markdown."""
    header = [
        "# Experiment report",
        "",
        "Generated by `rumor report`. Mean broadcast times over independent "
        "trials; growth fits against the candidate models of the paper.",
        "",
    ]
    return "\n".join(header + list(sections))


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
    return _document_markdown(
        "### `fairness` — Local fairness of bandwidth use (Section 1)",
        "Per-edge usage distributions: all traversals of a stationary agent "
        "population versus all sampled push-pull exchanges. The agent "
        "distribution is near-uniform on every graph (small Gini coefficient), "
        "while push-pull starves the bridge edge of the double star — the "
        "paper's local-fairness argument made quantitative.",
        result,
    )
