"""repro.obs — observability for the benchmark apparatus.

Four small layers, all optional at runtime and free when disabled:

* :mod:`repro.obs.trace` — nested span tracing (``with span("bert.pretrain")``)
  with a thread-safe in-process registry;
* :mod:`repro.obs.metrics` — latency percentiles, peak-RSS / tracemalloc
  sampling;
* :mod:`repro.obs.manifest` — run-manifest JSON artefacts written next to
  benchmark tables (environment + config + span tree + counters + memory);
* :mod:`repro.obs.progress` — opt-in stderr progress lines with rates.

Enable everything with ``REPRO_TRACE=1`` in the environment, the CLI's
``--trace`` flag, or programmatically::

    from repro import obs
    obs.enable()          # collect spans (and emit progress lines)
    ...
    obs.manifest.write_manifest("run.manifest.json")
"""

from repro.obs import manifest, metrics, progress, trace
from repro.obs.manifest import (
    MANIFEST_FORMAT,
    ManifestError,
    build_hotspots,
    build_manifest,
    load_manifest,
    manifest_path_for,
    record_config,
    record_stage_event,
    register_section_provider,
    set_context,
    slowest_stages,
    unregister_section_provider,
    write_artefact_manifest,
    write_manifest,
)
from repro.obs.metrics import (
    memory_metrics,
    peak_rss_bytes,
    peak_rss_mb,
    percentile,
    tracemalloc_metrics,
)
from repro.obs.progress import (
    StageProgress,
    emit,
    format_rate,
    progress_enabled,
)
from repro.obs.trace import (
    NULL_SPAN,
    TRACE_ENV_VAR,
    Span,
    Tracer,
    adopt,
    configure_from_env,
    enabled,
    get_tracer,
    reset,
    span,
)


def enable(verbose: bool = True) -> None:
    """Turn on span collection (and, by default, progress emission)."""
    trace.enable()
    if verbose:
        progress.enable_progress()


def disable() -> None:
    """Turn off span collection and progress emission."""
    trace.disable()
    progress.disable_progress()


__all__ = [
    "trace",
    "metrics",
    "manifest",
    "progress",
    # trace
    "TRACE_ENV_VAR",
    "NULL_SPAN",
    "Span",
    "Tracer",
    "span",
    "adopt",
    "get_tracer",
    "enabled",
    "enable",
    "disable",
    "reset",
    "configure_from_env",
    # metrics
    "percentile",
    "peak_rss_bytes",
    "peak_rss_mb",
    "memory_metrics",
    "tracemalloc_metrics",
    # manifest
    "MANIFEST_FORMAT",
    "ManifestError",
    "build_hotspots",
    "slowest_stages",
    "register_section_provider",
    "unregister_section_provider",
    "build_manifest",
    "write_manifest",
    "load_manifest",
    "manifest_path_for",
    "write_artefact_manifest",
    "record_config",
    "record_stage_event",
    "set_context",
    # progress
    "StageProgress",
    "emit",
    "format_rate",
    "progress_enabled",
]
