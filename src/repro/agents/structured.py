"""The structured route: a from-scratch mini query engine over KB tables.

The synthetic knowledge base is not just prose — its error pages and
procedure pages are *typed records rendered as HTML*.  ReportGenAI answers
such questions by compiling them to SQL (SQLMaker) and repairing failed
plans with a Validator agent; this module reproduces that loop end to end
without a database:

1. **Typed table extraction** (:class:`StructuredCatalog`): every store
   document is parsed (:func:`repro.htmlproc.parser.parse_html`) and the
   error/procedure pages are lifted into two in-memory tables —

   * ``error_codes(code, system, resolution, doc_id, title)``
   * ``procedures(operation, system, segment, domain, doc_id, title)``

2. **A tiny AST** (:class:`TablePlan` / :class:`Predicate`): the query
   language is deliberately minimal — conjunctive predicates (``eq`` /
   ``contains`` / ``prefix``) over one table, optional ``count``
   aggregation, a row limit.

3. **Compiler** (:class:`StructuredCompiler`): pattern-compiles the
   question ("errore ERR-1003", "Quali errori sono noti per CreditFlow?",
   "Quante procedure riguardano FinWork?") into a plan.

4. **Validator + executor** (:class:`PlanValidator`, :func:`execute_plan`):
   the validator type-checks the plan against the catalog schema and the
   executor runs it deterministically (rows ordered by primary key).

5. **Repair agent** (:class:`StructuredAgent`): a failed plan — schema
   error or empty result — is retried through an ordered list of repair
   strategies (normalize identifier case, relax ``eq`` to ``contains``,
   drop unknown predicates, re-derive predicates from the question's
   identifier tokens), ReportGenAI's "SQL Validator fixes failed SQL"
   loop.  Every attempt is recorded so traces and tests can see exactly
   which repair saved the query.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace

from repro.htmlproc.parser import parse_html

#: Table names of the catalog.
TABLE_ERROR_CODES = "error_codes"
TABLE_PROCEDURES = "procedures"

#: Predicate operators of the mini AST.
OP_EQ = "eq"
OP_CONTAINS = "contains"
OP_PREFIX = "prefix"
ALL_OPS = (OP_EQ, OP_CONTAINS, OP_PREFIX)

#: Maximum rows a compiled plan returns.
STRUCTURED_LIMIT = 5
#: Repair strategies the :class:`StructuredAgent` may try after the initial
#: plan fails, before falling back to the generative path.
MAX_REPAIR_ATTEMPTS = 3

_ERROR_TITLE_RE = re.compile(r"^Errore (ERR-\d+) in (.+)$")
_PROCEDURE_LEAD_RE = re.compile(
    r"la procedura per (.+?) tramite l'applicativo (.+?), riservata ai (.+?)\.",
)
_CODE_RE = re.compile(r"\berr[\s-]?(\d{3,5})\b", re.IGNORECASE)


class PlanError(Exception):
    """A structured plan failed validation or could not be compiled."""


@dataclass(frozen=True)
class Predicate:
    """One conjunctive filter of a table plan."""

    column: str
    op: str
    value: str


@dataclass(frozen=True)
class TablePlan:
    """The mini query AST: one table, conjunctive predicates, projection.

    Attributes:
        table: target table name.
        predicates: conjunctive filters (all must hold).
        aggregate: "" for row results, ``"count"`` for a row count.
        limit: maximum rows returned (ignored by aggregates).
    """

    table: str
    predicates: tuple[Predicate, ...] = ()
    aggregate: str = ""
    limit: int = 5


@dataclass(frozen=True)
class StructuredTable:
    """One extracted table: a schema plus deterministic rows."""

    name: str
    columns: tuple[str, ...]
    rows: tuple[dict, ...]


@dataclass(frozen=True)
class StructuredResult:
    """The outcome of one structured-agent run.

    Attributes:
        plan: the plan that finally executed (None when every attempt
            failed).
        rows: the matched rows (empty for failures and counts).
        count: the aggregate count (None for row results).
        attempts: the repair ledger — ``"initial"`` plus one entry per
            repair strategy tried, in order.
        repaired: True when a repair strategy (not the initial plan)
            produced the final result.
        error: the last failure message when the run did not succeed.
    """

    plan: TablePlan | None
    rows: tuple[dict, ...] = ()
    count: int | None = None
    attempts: tuple[str, ...] = ()
    repaired: bool = False
    error: str = ""

    @property
    def ok(self) -> bool:
        """True when the run produced rows or an aggregate."""
        return self.plan is not None and (bool(self.rows) or self.count is not None)


class StructuredCatalog:
    """The typed tables extracted from the knowledge-base store."""

    def __init__(self, tables: dict[str, StructuredTable]) -> None:
        self.tables = tables

    @classmethod
    def from_store(cls, store) -> "StructuredCatalog":
        """Extract the error-code and procedure tables from *store*.

        Extraction works purely from the documents' parsed HTML (title +
        paragraphs), never from generator ground truth — the same pages
        the retrieval index sees are the rows the mini engine queries.
        """
        error_rows: list[dict] = []
        procedure_rows: list[dict] = []
        for document in store.all_documents():
            parsed = parse_html(document.html)
            title_match = _ERROR_TITLE_RE.match(parsed.title)
            if title_match:
                resolution = next(
                    (p for p in parsed.paragraphs if p.startswith("Per risolvere")), ""
                )
                error_rows.append(
                    {
                        "code": title_match.group(1),
                        "system": title_match.group(2),
                        "resolution": resolution,
                        "doc_id": document.doc_id,
                        "title": parsed.title,
                    }
                )
                continue
            for paragraph in parsed.paragraphs:
                lead = _PROCEDURE_LEAD_RE.search(paragraph)
                if lead:
                    procedure_rows.append(
                        {
                            "operation": lead.group(1),
                            "system": lead.group(2),
                            "segment": lead.group(3),
                            "domain": document.domain,
                            "doc_id": document.doc_id,
                            "title": parsed.title,
                        }
                    )
                    break
        error_rows.sort(key=lambda row: row["code"])
        procedure_rows.sort(key=lambda row: row["doc_id"])
        return cls(
            {
                TABLE_ERROR_CODES: StructuredTable(
                    name=TABLE_ERROR_CODES,
                    columns=("code", "system", "resolution", "doc_id", "title"),
                    rows=tuple(error_rows),
                ),
                TABLE_PROCEDURES: StructuredTable(
                    name=TABLE_PROCEDURES,
                    columns=("operation", "system", "segment", "domain", "doc_id", "title"),
                    rows=tuple(procedure_rows),
                ),
            }
        )

    def systems(self) -> tuple[str, ...]:
        """Every application-system name mentioned by any table row."""
        names = {
            row["system"]
            for table in self.tables.values()
            for row in table.rows
            if "system" in table.columns
        }
        return tuple(sorted(names))


class PlanValidator:
    """Type-checks a plan against the catalog schema (the Validator agent)."""

    def __init__(self, catalog: StructuredCatalog) -> None:
        self._catalog = catalog

    def validate(self, plan: TablePlan) -> None:
        """Raise :class:`PlanError` when *plan* cannot execute."""
        table = self._catalog.tables.get(plan.table)
        if table is None:
            raise PlanError(f"unknown table {plan.table!r}")
        if plan.aggregate not in ("", "count"):
            raise PlanError(f"unknown aggregate {plan.aggregate!r}")
        if plan.limit <= 0:
            raise PlanError("limit must be positive")
        for predicate in plan.predicates:
            if predicate.column not in table.columns:
                raise PlanError(
                    f"unknown column {predicate.column!r} of table {plan.table!r}"
                )
            if predicate.op not in ALL_OPS:
                raise PlanError(f"unknown operator {predicate.op!r}")
            if not predicate.value:
                raise PlanError(f"empty value for column {predicate.column!r}")


def _matches(row: dict, predicate: Predicate) -> bool:
    cell = str(row.get(predicate.column, "")).casefold()
    value = predicate.value.casefold()
    if predicate.op == OP_EQ:
        return cell == value
    if predicate.op == OP_PREFIX:
        return cell.startswith(value)
    return value in cell  # OP_CONTAINS


def execute_plan(plan: TablePlan, catalog: StructuredCatalog) -> tuple[tuple[dict, ...], int]:
    """Run a validated *plan*; returns (limited rows, full match count)."""
    table = catalog.tables[plan.table]
    matched = [
        row
        for row in table.rows
        if all(_matches(row, predicate) for predicate in plan.predicates)
    ]
    return tuple(matched[: plan.limit]), len(matched)


class StructuredCompiler:
    """Pattern-compiles a question into a :class:`TablePlan`."""

    def __init__(self, catalog: StructuredCatalog) -> None:
        self._catalog = catalog

    def compile(self, question: str) -> TablePlan:
        """Compile *question*; raises :class:`PlanError` when no pattern fits."""
        code_match = _CODE_RE.search(question)
        if code_match:
            code = f"ERR-{code_match.group(1)}"
            return TablePlan(
                table=TABLE_ERROR_CODES,
                predicates=(Predicate("code", OP_EQ, code),),
                limit=STRUCTURED_LIMIT,
            )

        lowered = question.lower()
        aggregate = "count" if re.match(r"^\s*quant[ei]\b", lowered) else ""
        system = self._mentioned_system(question)
        if re.search(r"\b(errori|codici)\b", lowered):
            predicates = (
                (Predicate("system", OP_EQ, system),) if system else ()
            )
            if not predicates and not aggregate:
                raise PlanError("error-table question names no known system")
            return TablePlan(
                table=TABLE_ERROR_CODES,
                predicates=predicates,
                aggregate=aggregate,
                limit=STRUCTURED_LIMIT,
            )
        if re.search(r"\bprocedure\b", lowered):
            if system:
                predicates = (Predicate("system", OP_EQ, system),)
            else:
                segment = self._mentioned_segment(question)
                if segment:
                    predicates = (Predicate("segment", OP_CONTAINS, segment),)
                elif aggregate:
                    predicates = ()
                else:
                    raise PlanError("procedure-table question names no known system")
            return TablePlan(
                table=TABLE_PROCEDURES,
                predicates=predicates,
                aggregate=aggregate,
                limit=STRUCTURED_LIMIT,
            )
        raise PlanError("no structured pattern matched the question")

    def _mentioned_system(self, question: str) -> str:
        lowered = question.casefold()
        for system in self._catalog.systems():
            if system.casefold() in lowered:
                return system
        return ""

    def _mentioned_segment(self, question: str) -> str:
        table = self._catalog.tables.get(TABLE_PROCEDURES)
        if table is None:
            return ""
        segments = sorted({row["segment"] for row in table.rows})
        lowered = question.casefold()
        for segment in segments:
            if segment.casefold() in lowered:
                return segment
        return ""


class StructuredAgent:
    """Compile → validate → execute, with the Validator repair loop.

    Args:
        catalog: the extracted table catalog.
    """

    def __init__(self, catalog: StructuredCatalog) -> None:
        self.catalog = catalog
        self.validator = PlanValidator(catalog)
        self.compiler = StructuredCompiler(catalog)

    def run(self, question: str) -> StructuredResult:
        """Answer *question* over the catalog, repairing failed plans."""
        attempts: list[str] = []
        try:
            plan: TablePlan | None = self.compiler.compile(question)
            attempts.append("initial")
        except PlanError as error:
            return StructuredResult(plan=None, attempts=("compile",), error=str(error))

        error_text = ""
        for attempt_no in range(MAX_REPAIR_ATTEMPTS + 1):
            if attempt_no > 0:
                plan, strategy = self._repair(plan, question, error_text, attempt_no)
                if plan is None:
                    break
                attempts.append(strategy)
            try:
                self.validator.validate(plan)
                rows, total = execute_plan(plan, self.catalog)
            except PlanError as error:
                error_text = str(error)
                continue
            if plan.aggregate == "count":
                return StructuredResult(
                    plan=plan,
                    count=total,
                    attempts=tuple(attempts),
                    repaired=attempt_no > 0,
                )
            if rows:
                return StructuredResult(
                    plan=plan,
                    rows=rows,
                    attempts=tuple(attempts),
                    repaired=attempt_no > 0,
                )
            error_text = "plan matched no rows"
        return StructuredResult(
            plan=plan, attempts=tuple(attempts), error=error_text or "no plan executed"
        )

    # -- repair strategies ----------------------------------------------------

    def _repair(
        self, plan: TablePlan | None, question: str, error: str, attempt_no: int
    ) -> tuple[TablePlan | None, str]:
        """The ordered repair ladder; returns (new plan, strategy name)."""
        if plan is None:
            return None, ""
        if attempt_no == 1:
            return self._repair_schema(plan), "repair_schema"
        if attempt_no == 2:
            return self._repair_relax(plan), "repair_relax"
        if attempt_no == 3:
            return self._repair_rederive(plan, question), "repair_rederive"
        return None, ""

    def _repair_schema(self, plan: TablePlan) -> TablePlan:
        """Drop predicates the schema rejects; normalize identifier case.

        A plan over an unknown table is retargeted to the table whose
        schema covers most of its predicate columns — the mini-engine
        equivalent of the Validator rewriting a bad ``FROM`` clause.
        """
        table = self.catalog.tables.get(plan.table)
        if table is None:
            best_name, best_cover = TABLE_ERROR_CODES, -1
            for name, candidate in self.catalog.tables.items():
                cover = sum(
                    1 for p in plan.predicates if p.column in candidate.columns
                )
                if cover > best_cover:
                    best_name, best_cover = name, cover
            plan = replace(plan, table=best_name)
            table = self.catalog.tables[best_name]
        kept = tuple(
            replace(p, op=p.op if p.op in ALL_OPS else OP_CONTAINS)
            for p in plan.predicates
            if p.column in table.columns and p.value
        )
        kept = tuple(
            replace(p, value=p.value.upper()) if p.column == "code" else p
            for p in kept
        )
        return replace(plan, predicates=kept, limit=max(plan.limit, 1))

    def _repair_relax(self, plan: TablePlan) -> TablePlan:
        """Relax exact matches to substring matches."""
        return replace(
            plan,
            predicates=tuple(
                replace(p, op=OP_CONTAINS) if p.op in (OP_EQ, OP_PREFIX) else p
                for p in plan.predicates
            ),
        )

    def _repair_rederive(self, plan: TablePlan, question: str) -> TablePlan | None:
        """Rebuild predicates from the question's identifier tokens.

        The last resort: forget the failed predicates and match any
        identifier-looking token (codes, CamelCase system names) against
        the table's text columns.
        """
        from repro.llm.simulated import _identifier_tokens

        identifiers = sorted(_identifier_tokens(question))
        if not identifiers:
            return None
        table = self.catalog.tables[plan.table]
        column = "code" if "code" in table.columns else table.columns[0]
        return replace(
            plan,
            predicates=(Predicate(column, OP_CONTAINS, identifiers[0]),),
        )


def render_structured_answer(
    question: str, result: StructuredResult, context: list
) -> str:
    """Render a :class:`StructuredResult` as a cited Italian answer.

    Rows whose document appears in the retrieval *context* get a standard
    ``[docK]`` citation marker, so the ordinary citation-resolution stage
    maps them to chunks exactly as it does for generated answers.
    """
    positions = {
        chunk.record.doc_id: index + 1 for index, chunk in enumerate(context)
    }

    def cite(doc_id: str) -> str:
        position = positions.get(doc_id)
        return f" [doc{position}]" if position is not None else ""

    if result.count is not None and not result.rows:
        table_label = (
            "codici di errore" if result.plan.table == TABLE_ERROR_CODES else "procedure"
        )
        criteria = ", ".join(
            f"{p.column}={p.value}" for p in result.plan.predicates
        )
        suffix = f" per {criteria}" if criteria else ""
        return (
            f"Nella documentazione risultano {result.count} {table_label}{suffix}."
        )

    parts: list[str] = []
    for row in result.rows:
        if result.plan is not None and result.plan.table == TABLE_ERROR_CODES:
            resolution = row["resolution"].rstrip(".")
            parts.append(
                f"L'errore {row['code']} è un errore applicativo di {row['system']}. "
                f"{resolution}{cite(row['doc_id'])}."
            )
        else:
            parts.append(
                f"La pagina '{row['title']}' descrive la procedura per "
                f"{row['operation']} tramite {row['system']}, riservata ai "
                f"{row['segment']}{cite(row['doc_id'])}."
            )
    return " ".join(parts)
