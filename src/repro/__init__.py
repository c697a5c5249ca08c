"""SMASH — Systematic Mining of Associated Server Herds.

A full reproduction of Zhang, Saha, Gu, Lee, Mellia, *"Systematic Mining
of Associated Server Herds for Malware Campaign Discovery"*, ICDCS 2015.

Public API quick tour::

    from repro import SmashPipeline, SmashConfig
    from repro.synth import data2011day, TraceGenerator

    dataset = TraceGenerator(data2011day()).generate_day(0)
    result = SmashPipeline(SmashConfig()).run(
        dataset.trace, whois=dataset.whois, redirects=dataset.redirects
    )
    for campaign in result.campaigns_with_clients(2):
        print(campaign.num_servers, sorted(campaign.servers)[:5])

Packages:

* :mod:`repro.core` — the SMASH pipeline (preprocess, dimensions, ASH
  mining, correlation, pruning, campaign inference);
* :mod:`repro.stream` — incremental multi-day streaming engine: rolling
  window, per-advance pipeline runs, cross-day campaign identity
  tracking (stable IDs, persistence, churn), alert sinks and
  checkpoint/resume;
* :mod:`repro.synth` — synthetic ISP trace generator (the evaluation
  substrate);
* :mod:`repro.groundtruth` — signature IDS + blacklist ground truth;
* :mod:`repro.obs` — opt-in observability: metrics registry, stage
  spans, Prometheus-text and JSONL-snapshot exporters (recording never
  changes outputs);
* :mod:`repro.eval` — the paper's verification methodology and every
  table/figure of Section V;
* :mod:`repro.baselines` — IDS-only, blacklist-only, client-clustering
  and domain-reputation baselines;
* :mod:`repro.graph` / :mod:`repro.httplog` / :mod:`repro.whois` /
  :mod:`repro.domains` — substrates.
"""

from importlib import import_module

#: Public name -> the module that defines it.  Names resolve lazily on
#: first access (PEP 562), so ``import repro.core.shardworker`` does not
#: pay for the streaming engine, the generator or the evaluation code.
_EXPORTS = {
    "CorrelationConfig": "repro.config",
    "DimensionConfig": "repro.config",
    "LouvainConfig": "repro.config",
    "PreprocessConfig": "repro.config",
    "PruningConfig": "repro.config",
    "SmashConfig": "repro.config",
    "Campaign": "repro.core",
    "Herd": "repro.core",
    "SmashPipeline": "repro.core",
    "SmashResult": "repro.core",
    "CheckpointError": "repro.errors",
    "ConfigError": "repro.errors",
    "GraphError": "repro.errors",
    "GroundTruthError": "repro.errors",
    "ObsError": "repro.errors",
    "PipelineError": "repro.errors",
    "ReproError": "repro.errors",
    "ScenarioError": "repro.errors",
    "StreamError": "repro.errors",
    "TraceError": "repro.errors",
    "CampaignTracker": "repro.stream",
    "RollingWindow": "repro.stream",
    "StreamingSmash": "repro.stream",
    "StreamUpdate": "repro.stream",
    "TrackedCampaign": "repro.stream",
    "TrackerConfig": "repro.stream",
}


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    value = getattr(import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))


__version__ = "1.0.0"

__all__ = [
    "Campaign",
    "CampaignTracker",
    "CheckpointError",
    "ConfigError",
    "CorrelationConfig",
    "DimensionConfig",
    "GraphError",
    "GroundTruthError",
    "Herd",
    "LouvainConfig",
    "ObsError",
    "PipelineError",
    "PreprocessConfig",
    "PruningConfig",
    "ReproError",
    "RollingWindow",
    "ScenarioError",
    "SmashConfig",
    "SmashPipeline",
    "SmashResult",
    "StreamError",
    "StreamUpdate",
    "StreamingSmash",
    "TraceError",
    "TrackedCampaign",
    "TrackerConfig",
    "__version__",
]
