"""Experiment registry: one method per paper table/figure.

:class:`ExperimentRunner` lazily generates the scenario datasets, mines
each one once (mining dominates cost and is threshold-independent), and
exposes a method per experiment returning plain data structures.  The
``benchmarks/`` suite is a thin layer over this module: every bench calls
one runner method, prints the paper-shaped table and asserts the shape
properties listed in DESIGN.md.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.config import SmashConfig
from repro.core.pipeline import MinedDimensions, SmashPipeline
from repro.core.results import SmashResult
from repro.eval.figures import (
    PersistenceDay,
    SizeDistributions,
    dimension_decomposition,
    idf_series,
    main_herd_taxonomy,
    malicious_filename_lengths,
    persistence_series_detailed,
    size_distributions,
)
from repro.eval.verification import VerificationSummary, Verifier
from repro.synth.generator import SyntheticDataset, TraceGenerator
from repro.synth.scenarios import data2011day, data2012day, data2012week

#: The Table II/III threshold sweep.
THRESHOLDS: tuple[float, ...] = (0.5, 0.8, 1.0, 1.5)

#: The paper's operating thresholds (Section V-A1, Appendix C).
DEFAULT_THRESH = 0.8
SINGLE_CLIENT_THRESH = 1.0


@dataclass
class ExperimentRunner:
    """Shared state for all experiments at one scenario scale."""

    scale: float = 1.0
    config: SmashConfig = field(default_factory=SmashConfig)

    def __post_init__(self) -> None:
        self._datasets: dict[str, SyntheticDataset] = {}
        self._week: list[SyntheticDataset] | None = None
        self._mined: dict[str, MinedDimensions] = {}
        self._results: dict[tuple[str, float], SmashResult] = {}
        self._verifiers: dict[str, Verifier] = {}
        self._streamed = None
        self._streamed_scored = None
        self.pipeline = SmashPipeline(self.config)

    # -- dataset / pipeline plumbing -------------------------------------------------

    def dataset(self, name: str) -> SyntheticDataset:
        if name not in self._datasets:
            if name == "2011":
                spec = data2011day(scale=self.scale)
            elif name == "2012":
                spec = data2012day(scale=self.scale)
            else:
                raise KeyError(f"unknown day dataset {name!r}")
            self._datasets[name] = TraceGenerator(spec).generate_day(0)
        return self._datasets[name]

    def week(self) -> list[SyntheticDataset]:
        if self._week is None:
            self._week = TraceGenerator(data2012week(scale=self.scale)).generate_week()
        return self._week

    def mined(self, name: str) -> MinedDimensions:
        if name not in self._mined:
            if name.startswith("week"):
                day = int(name.removeprefix("week"))
                dataset = self.week()[day]
            else:
                dataset = self.dataset(name)
            self._mined[name] = self.pipeline.mine(dataset.trace, whois=dataset.whois)
        return self._mined[name]

    def _dataset_for(self, name: str) -> SyntheticDataset:
        if name.startswith("week"):
            return self.week()[int(name.removeprefix("week"))]
        return self.dataset(name)

    def result(self, name: str, thresh: float = DEFAULT_THRESH) -> SmashResult:
        key = (name, thresh)
        if key not in self._results:
            dataset = self._dataset_for(name)
            self._results[key] = self.pipeline.finish(
                self.mined(name), redirects=dataset.redirects, thresh=thresh
            )
        return self._results[key]

    def verifier(self, name: str) -> Verifier:
        if name not in self._verifiers:
            self._verifiers[name] = Verifier(self._dataset_for(name))
        return self._verifiers[name]

    def verification(
        self,
        name: str,
        thresh: float,
        min_clients: int = 2,
        max_clients: int | None = None,
    ) -> VerificationSummary:
        return self.verifier(name).verify(
            self.result(name, thresh),
            thresh,
            min_clients=min_clients,
            max_clients=max_clients,
        )

    # -- Table I --------------------------------------------------------------------

    def table1(self) -> dict[str, dict[str, int]]:
        """Trace statistics of the three datasets."""
        columns: dict[str, dict[str, int]] = {}
        for label, name in (("Data2011day", "2011"), ("Data2012day", "2012")):
            columns[label] = self.dataset(name).trace.stats().as_row()
        week = self.week()
        week_stats = None
        from repro.httplog.trace import HttpTrace

        combined = HttpTrace.concat([d.trace for d in week], name="data2012week")
        week_stats = combined.stats().as_row()
        columns["Data2012week"] = week_stats
        return columns

    # -- Tables II and III ------------------------------------------------------------

    def table2(self) -> dict[str, dict[float, dict[str, int]]]:
        """Campaign counts by threshold (multi-client track)."""
        out: dict[str, dict[float, dict[str, int]]] = {}
        for label, name in (("Data2011day", "2011"), ("Data2012day", "2012")):
            out[label] = {
                thresh: self.verification(name, thresh).table2_row()
                for thresh in THRESHOLDS
            }
        return out

    def table3(self) -> dict[str, dict[float, dict[str, int]]]:
        """Server counts by threshold (multi-client track)."""
        out: dict[str, dict[float, dict[str, int]]] = {}
        for label, name in (("Data2011day", "2011"), ("Data2012day", "2012")):
            out[label] = {
                thresh: self.verification(name, thresh).table3_row()
                for thresh in THRESHOLDS
            }
        return out

    # -- Table IV ---------------------------------------------------------------------

    def table4(self, name: str = "2011") -> dict[str, dict[str, int]]:
        """Detected servers by attack category, split by activity type.

        The paper categorises via IDS labels and blacklists; with a
        synthetic universe the planted campaign category plays that role.
        """
        dataset = self._dataset_for(name)
        detected = self.result(name, DEFAULT_THRESH).detected_servers
        detected |= self.result(name, SINGLE_CLIENT_THRESH).detected_servers
        by_category: Counter[str] = Counter()
        for campaign in dataset.truth.campaigns:
            hits = len(campaign.servers & detected)
            if hits:
                by_category[campaign.category] += hits
        communication = {
            "C&C": by_category.get("cnc", 0),
            "Web exploit": by_category.get("web_exploit", 0),
            "Phishing": by_category.get("phishing", 0),
            "Drop zone": by_category.get("drop_zone", 0),
            "Other malicious servers": by_category.get("malicious", 0),
        }
        attacking = {
            "Web scanner": by_category.get("web_scanner", 0),
            "Iframe injection": by_category.get("iframe_injection", 0),
        }
        return {"Communication": communication, "Attacking": attacking}

    # -- Tables V and VI (week) ---------------------------------------------------------

    def week_verifications(
        self, min_clients: int = 2, max_clients: int | None = None
    ) -> list[VerificationSummary]:
        thresh = DEFAULT_THRESH if min_clients >= 2 else SINGLE_CLIENT_THRESH
        summaries = []
        for day in range(len(self.week())):
            summaries.append(
                self.verification(
                    f"week{day}", thresh, min_clients=min_clients, max_clients=max_clients
                )
            )
        return summaries

    def table5(self) -> list[dict[str, int]]:
        """Per-day campaign counts over the week (footnote 9: threshold 0.8
        for multi-client campaigns, 1.0 for single-client ones)."""
        rows = []
        for day in range(len(self.week())):
            multi = self.verification(f"week{day}", DEFAULT_THRESH, min_clients=2)
            single = self.verification(
                f"week{day}", SINGLE_CLIENT_THRESH, min_clients=1, max_clients=1
            )
            combined = Counter(multi.campaign_counts) + Counter(single.campaign_counts)
            row = {"SMASH": multi.num_campaigns + single.num_campaigns}
            row["IDS 2013 total"] = combined["ids2013_total"] + combined["ids2012_total"]
            row["IDS 2013 partial"] = combined["ids2013_partial"] + combined["ids2012_partial"]
            row["Blacklist"] = combined["blacklist_partial"]
            row["Suspicious"] = combined["suspicious"]
            row["False Positives"] = combined["false_positive"]
            row["FP (Updated)"] = (
                combined["false_positive"] - combined["false_positive_noisy"]
            )
            rows.append(row)
        return rows

    def table6(self) -> list[dict[str, int]]:
        """Per-day server counts over the week."""
        rows = []
        for day in range(len(self.week())):
            multi = self.verification(f"week{day}", DEFAULT_THRESH, min_clients=2)
            single = self.verification(
                f"week{day}", SINGLE_CLIENT_THRESH, min_clients=1, max_clients=1
            )
            counts = Counter(multi.server_counts) + Counter(single.server_counts)
            row = {"SMASH": multi.num_servers + single.num_servers}
            row["IDS 2013"] = counts["ids2013"] + counts["ids2012"]
            row["Blacklist"] = counts["blacklist"]
            row["New Servers"] = counts["new_server"]
            row["Suspicious"] = counts["suspicious"]
            row["False Positives"] = counts["false_positive"]
            row["FP (Updated)"] = counts["false_positive"] - counts["false_positive_noisy"]
            rows.append(row)
        return rows

    # -- Figures -----------------------------------------------------------------------

    def fig6(self) -> SizeDistributions:
        """Campaign-size / client-count distributions over both day sets,
        multi- and single-client tracks combined (as the paper plots)."""
        campaigns = []
        for name in ("2011", "2012"):
            campaigns.extend(self.result(name, DEFAULT_THRESH).campaigns_with_clients(2))
            campaigns.extend(
                self.result(name, SINGLE_CLIENT_THRESH).campaigns_with_clients(1, 1)
            )
        return size_distributions(campaigns)

    def fig7(self) -> list[PersistenceDay]:
        """Persistent vs agile decomposition over the week."""
        daily = []
        for day in range(len(self.week())):
            campaigns = list(
                self.result(f"week{day}", DEFAULT_THRESH).campaigns_with_clients(2)
            )
            campaigns.extend(
                self.result(f"week{day}", SINGLE_CLIENT_THRESH).campaigns_with_clients(1, 1)
            )
            daily.append(campaigns)
        return persistence_series_detailed(daily)

    # -- streaming (repro.stream) reformulations of the week experiments ----------------

    def streamed_week(self):
        """Run the week through :class:`~repro.stream.engine.StreamingSmash`.

        Cached: one stream drive serves :meth:`fig7_streaming`,
        :meth:`campaign_lifetimes` and :meth:`table5_streaming`.
        Returns ``(engine, updates)``.
        """
        if self._streamed is None:
            from repro.eval.streaming import stream_week

            self._streamed = stream_week(self.week(), config=self.config)
        return self._streamed

    def fig7_streaming(self) -> list[PersistenceDay]:
        """Figure 7 from the campaign tracker's live bookkeeping.

        Agrees with :meth:`fig7` on the same week — the tracker records
        the identical decomposition incrementally instead of comparing
        retained daily results post hoc.
        """
        engine, _ = self.streamed_week()
        return engine.tracker.persistence_series()

    def campaign_lifetimes(self) -> list[dict[str, object]]:
        """Cross-day campaign lifetime/churn rows from the tracker."""
        engine, _ = self.streamed_week()
        return engine.tracker.lifetimes()

    def table5_streaming(self) -> list[dict[str, int]]:
        """Per-day campaign counts with tracker event breakdown."""
        from repro.eval.streaming import daily_tracking_summary

        _, updates = self.streamed_week()
        return daily_tracking_summary(updates)

    def alert_quality(self) -> dict[str, dict[str, object]]:
        """Alert precision/recall per severity over the streamed week.

        Streams the week with the scenario's IDS generations and
        blacklists wired as evidence sources and the default alert
        policy, then scores the resulting alert feed against the planted
        ground truth (:func:`repro.eval.alerts.alert_quality`).  Cached
        separately from :meth:`streamed_week`, which streams unscored.
        """
        if self._streamed_scored is None:
            from repro.eval.streaming import stream_week
            from repro.stream.scoring import scenario_evidence

            self._streamed_scored = stream_week(
                self.week(), config=self.config, evidence=scenario_evidence()
            )
        from repro.eval.alerts import alert_quality

        engine, updates = self._streamed_scored
        return alert_quality(
            engine, updates, [dataset.truth for dataset in self.week()]
        )

    def fig8(self, name: str = "2011") -> dict[str, float]:
        """Secondary-dimension decomposition of detected servers."""
        return dimension_decomposition(self.result(name, DEFAULT_THRESH))

    def fig9(self, name: str = "2011"):
        dataset = self._dataset_for(name)
        return idf_series(dataset.trace, dataset.ids2013)

    def fig10(self, name: str = "2011") -> list[int]:
        dataset = self._dataset_for(name)
        return malicious_filename_lengths(dataset.trace, dataset.ids2013)

    # -- Section V-C1 taxonomy ------------------------------------------------------------

    def taxonomy(self, name: str = "2011") -> dict[str, float]:
        return main_herd_taxonomy(self.result(name, DEFAULT_THRESH), self._dataset_for(name))

    # -- Appendix C (Tables XI, XII) -------------------------------------------------------

    def table11(self) -> dict[str, dict[float, dict[str, int]]]:
        out: dict[str, dict[float, dict[str, int]]] = {}
        for label, name in (("Data2011day", "2011"), ("Data2012day", "2012")):
            out[label] = {
                thresh: self.verification(
                    name, thresh, min_clients=1, max_clients=1
                ).table2_row()
                for thresh in THRESHOLDS
            }
        return out

    def table12(self) -> dict[str, dict[float, dict[str, int]]]:
        out: dict[str, dict[float, dict[str, int]]] = {}
        for label, name in (("Data2011day", "2011"), ("Data2012day", "2012")):
            out[label] = {
                thresh: self.verification(
                    name, thresh, min_clients=1, max_clients=1
                ).table3_row()
                for thresh in THRESHOLDS
            }
        return out

    # -- false negatives (Section V-A2) ------------------------------------------------------

    def false_negatives(self, name: str = "2011") -> dict[str, frozenset[str]]:
        result = self.result(name, DEFAULT_THRESH)
        return self.verifier(name).false_negatives(result)
