"""Per-transformation cost models learned from invocation history (§5.3).

"Estimation: Determine the cost of executing a procedure.  This
information can be vital input to both provisioning and user query
planning decisions." (§2)  The virtual data schema makes this possible
because resource usage is recorded with provenance: every
:class:`~repro.core.invocation.Invocation` carries cpu seconds and byte
counts.

:class:`TransformationCostModel` fits ``cpu = a + b * bytes_read`` by
least squares over the history (falling back to the mean when inputs
don't vary), plus a mean output-size model.  When no history exists,
declared hints on the transformation's attributes are honoured:

* ``cost.cpu_seconds`` — fixed cpu estimate;
* ``cost.cpu_per_byte`` — marginal cpu per input byte;
* ``cost.output_bytes`` — expected size of each output.
"""

from __future__ import annotations

from dataclasses import dataclass

from typing import TYPE_CHECKING, Iterable, Optional

from repro.catalog.base import VirtualDataCatalog
from repro.core.derivation import Derivation
from repro.core.invocation import Invocation
from repro.observability.instrument import NULL, Instrumentation

if TYPE_CHECKING:
    from repro.observability.recorder import RunRecord

#: Used when nothing at all is known (1 second, 1 MB) — deliberately
#: visible defaults rather than silent zeros.
FALLBACK_CPU_SECONDS = 1.0
FALLBACK_OUTPUT_BYTES = 1_000_000


@dataclass
class TransformationCostModel:
    """A fitted (or declared) cost model for one transformation."""

    transformation: str
    intercept: float = FALLBACK_CPU_SECONDS
    per_byte: float = 0.0
    mean_output_bytes: int = FALLBACK_OUTPUT_BYTES
    samples: int = 0

    def predict_cpu_seconds(self, input_bytes: int = 0) -> float:
        """Predicted cpu seconds for a run reading ``input_bytes``."""
        return max(0.0, self.intercept + self.per_byte * input_bytes)

    def predict_output_bytes(self) -> int:
        return max(0, self.mean_output_bytes)

    @property
    def is_fitted(self) -> bool:
        return self.samples > 0


def fit_samples(
    transformation: str,
    samples: list[tuple[float, float, float]],
) -> TransformationCostModel:
    """Least-squares fit of cpu ~ bytes_read over raw samples.

    Each sample is ``(bytes_read, cpu_seconds, bytes_written)``.  The
    sample-based core lets the same fit serve live
    :class:`~repro.core.invocation.Invocation` objects and the
    invocation rows of recorded runs.
    """
    if not samples:
        return TransformationCostModel(transformation=transformation)
    xs = [float(s[0]) for s in samples]
    ys = [float(s[1]) for s in samples]
    n = len(samples)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    var_x = sum((x - mean_x) ** 2 for x in xs)
    if var_x > 0:
        slope = sum(
            (x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)
        ) / var_x
        intercept = mean_y - slope * mean_x
        if slope < 0:
            # Anti-correlation is noise at these sample sizes; a
            # negative marginal cost would corrupt planning.
            slope, intercept = 0.0, mean_y
    else:
        slope, intercept = 0.0, mean_y
    outputs = [s[2] for s in samples if s[2]]
    mean_out = (
        int(sum(outputs) / len(outputs)) if outputs else FALLBACK_OUTPUT_BYTES
    )
    return TransformationCostModel(
        transformation=transformation,
        intercept=max(0.0, intercept),
        per_byte=slope,
        mean_output_bytes=mean_out,
        samples=n,
    )


def fit_model(
    transformation: str, invocations: list[Invocation]
) -> TransformationCostModel:
    """Least-squares fit of cpu ~ bytes_read over successful runs."""
    return fit_samples(
        transformation,
        [
            (
                float(inv.usage.bytes_read),
                inv.usage.cpu_seconds,
                float(inv.usage.bytes_written),
            )
            for inv in invocations
            if inv.succeeded
        ],
    )


class Estimator:
    """Answers cost queries against one catalog's recorded history."""

    def __init__(
        self,
        catalog: VirtualDataCatalog,
        instrumentation: Optional[Instrumentation] = None,
    ):
        self.catalog = catalog
        self.obs = instrumentation or NULL
        self._models: dict[str, TransformationCostModel] = {}
        # transformation -> catalog history stamp its hint/fallback
        # model was built at; fitted models are kept regardless.
        self._unfitted_at: dict[str, int] = {}

    # -- model management ------------------------------------------------------

    def refit(self) -> None:
        """Rebuild every model from the catalog's invocation records."""
        self._models.clear()
        self._unfitted_at.clear()
        for tr_name in self.catalog.called_transformations():
            self._models[tr_name] = fit_model(
                tr_name, self.catalog.invocations_of_transformation(tr_name)
            )

    def train_on_history(
        self, history: Iterable[RunRecord]
    ) -> dict[str, TransformationCostModel]:
        """Fit models from recorded runs.

        Pools every successful planned invocation of ``history`` (a
        list of :class:`~repro.observability.recorder.RunRecord`, as
        :meth:`~repro.system.Workspace.history` returns it) in run-id
        order — the §5.3 estimation loop closed over *all* recorded
        history.  A record taken on one grid can thus train an
        estimator bound to a different (even empty) catalog.  Returns
        the transformations whose models were refreshed.
        """
        samples: dict[str, list[tuple[float, float, float]]] = {}
        for record in sorted(history, key=lambda r: r.run_id):
            for row in record.invocation_rows:
                if row.transformation is None or row.status != "success":
                    continue
                samples.setdefault(row.transformation, []).append(
                    (float(row.bytes_read), row.cpu_seconds,
                     float(row.bytes_written))
                )
        trained: dict[str, TransformationCostModel] = {}
        for tr_name, rows in sorted(samples.items()):
            model = fit_samples(tr_name, rows)
            if model.is_fitted:
                self._models[tr_name] = trained[tr_name] = model
                if self.obs.enabled:
                    self.obs.count(
                        "estimator.trained",
                        help="models refreshed from run records",
                    )
        return trained

    def model_for(self, transformation: str) -> TransformationCostModel:
        """The model for one transformation, fitting lazily.

        Order of preference: fitted history, declared ``cost.*`` hints,
        visible fallback constants.  A hint/fallback model is reused
        until the catalog records something new about the
        transformation (a definition, a derivation, an invocation, or
        the rollback of one).
        """
        model = self._models.get(transformation)
        if model is not None and model.is_fitted:
            return model
        stamp = self.catalog.history_stamp(transformation)
        if model is not None and self._unfitted_at.get(transformation) == stamp:
            return model
        model = fit_model(
            transformation,
            self.catalog.invocations_of_transformation(transformation),
        )
        if not model.is_fitted and self.catalog.has_transformation(
            transformation
        ):
            tr = self.catalog.get_transformation(transformation)
            cpu = tr.attributes.get("cost.cpu_seconds")
            per_byte = tr.attributes.get("cost.cpu_per_byte")
            out_bytes = tr.attributes.get("cost.output_bytes")
            if cpu is not None:
                model.intercept = float(cpu)
            if per_byte is not None:
                model.per_byte = float(per_byte)
            if out_bytes is not None:
                model.mean_output_bytes = int(out_bytes)
        self._models[transformation] = model
        self._unfitted_at[transformation] = stamp
        return model

    # -- queries --------------------------------------------------------------

    def input_bytes_of(self, dv: Derivation) -> int:
        """Total planning size of a derivation's input datasets."""
        return sum(self.catalog.dataset_size(name, 0) for name in dv.inputs())

    def estimate_derivation(self, dv: Derivation) -> float:
        """Predicted cpu seconds for one derivation."""
        model = self.model_for(dv.transformation.name)
        if self.obs.enabled:
            self.obs.count(
                "estimator.estimates",
                fitted=model.is_fitted,
                help="cost predictions served (fitted vs hint/fallback)",
            )
        return model.predict_cpu_seconds(self.input_bytes_of(dv))

    def estimate_output_bytes(self, dv: Derivation, output: str) -> int:
        """Predicted size of one output dataset of a derivation.

        A known dataset size (declared, or its file replica's) wins
        over the model's mean.
        """
        known = self.catalog.dataset_size(output, 0)
        if known:
            return known
        return self.model_for(dv.transformation.name).predict_output_bytes()

    def confidence(self, transformation: str) -> int:
        """Number of historical samples behind the model (0 = hints only)."""
        return self.model_for(transformation).samples
