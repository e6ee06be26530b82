"""Stage definitions: the nodes of the Lab's explicit build graph.

A :class:`Stage` names one substrate of the experimental apparatus (the
ontology, a corpus, an embedding model, a task dataset, a trained
classifier, ...) together with

* its **dependencies** (other stage names),
* the **configuration slice** of :class:`~repro.core.experiment.LabConfig`
  that feeds it (anything outside the slice cannot change its output),
* a **code version tag**, bumped whenever the builder's behaviour changes,
* a **builder** producing the artifact from the Lab config and the dep
  artifacts, and
* optional **save/load hooks** that persist the artifact into a
  content-addressed :class:`~repro.pipeline.store.ArtifactStore` entry.

Stages without save/load hooks are *derived*: either trivially cheap
wrappers (random embeddings, the contextual wrapper around the pretrained
BERT) or in-memory-only models; they are rebuilt from their (possibly
cached) inputs each run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple

#: The slice of LabConfig a stage's output depends on, as an ordered tuple.
#: It is hashed into the stage's cache key, so it must cover every LabConfig
#: field the builder reads (through ``lab.config``, ``lab.rf_config()`` or
#: ``lab.ft_config()``); a field read outside it lets a warm store serve a
#: stale artifact.
ConfigSlice = Callable[[Any], Tuple]

#: Builds the artifact.  Receives the owning Lab (for config access and
#: helper constructors) and the dict of dependency artifacts keyed by stage
#: name.  The contract: config reads stay within the stage's
#: ``config_slice``, ``inputs`` reads stay within its ``deps``, and every
#: declared dep is read by the builder or the loader.
#: ``tests/test_pipeline_graph.py::TestStageContract`` builds every stage of
#: the Lab graph with recording proxies and enforces all three.
Builder = Callable[[Any, Dict[str, Any]], Any]

#: Persists the artifact into an (empty, private) store entry directory.
Saver = Callable[[Any, Path], None]

#: Restores the artifact from a store entry directory; receives the dep
#: artifacts as well so derived wrappers can re-attach live objects.
Loader = Callable[[Path, Dict[str, Any]], Any]


class StageError(RuntimeError):
    """A stage failed to build; carries the failing stage's name.

    Raised by the scheduler so that one broken stage surfaces with its
    identity attached instead of an anonymous traceback from deep inside a
    worker, and so sibling stages are not poisoned by the failure.
    """

    def __init__(self, stage: str, message: str):
        super().__init__(f"stage {stage!r} failed: {message}")
        self.stage = stage


@dataclass(frozen=True)
class Stage:
    """One named node of the stage graph (see module docstring)."""

    name: str
    build: Builder
    config_slice: ConfigSlice = field(default=lambda config: ())
    deps: Tuple[str, ...] = ()
    version: str = "1"
    save: Optional[Saver] = None
    load: Optional[Loader] = None

    def __post_init__(self):
        if not self.name:
            raise ValueError("stage name must be non-empty")
        if (self.save is None) != (self.load is None):
            raise ValueError(
                f"stage {self.name!r} must define both save and load, or neither"
            )

    @property
    def persistable(self) -> bool:
        """Whether the stage's artifact can live in an on-disk store."""
        return self.save is not None


__all__ = ["Stage", "StageError", "ConfigSlice", "Builder", "Saver", "Loader"]
