"""Tree-level configuration: chunking parameters per level kind."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.rolling.chunker import ChunkerConfig


def _default_leaf_config() -> ChunkerConfig:
    # Expected ~1 KiB leaves: large enough for healthy fan-out, small
    # enough that a single-record edit dirties only a sliver of storage.
    return ChunkerConfig(pattern_bits=10, min_size=64, max_size=16384)


def _default_index_config() -> ChunkerConfig:
    # Index entries are ~40-70 B each; q=9 gives ~8-12 entries per node.
    # min_entries=2 guarantees every index level at least halves, so the
    # build always converges to a single root even on adversarial content.
    return ChunkerConfig(pattern_bits=9, min_size=64, max_size=8192, min_entries=2)


@dataclass(frozen=True)
class TreeConfig:
    """Chunking parameters for POS-Tree levels.

    Both the bulk builder and the incremental editor read only this, so a
    tree built either way under the same config is byte-identical — that
    equality is asserted by the property tests.
    """

    leaf: ChunkerConfig = field(default_factory=_default_leaf_config)
    index: ChunkerConfig = field(default_factory=_default_index_config)

    def __post_init__(self) -> None:
        # A cut lies at least `min_size` bytes into its node, so with
        # min_size >= window no window a cut depends on reaches back past
        # the node's start: the incremental editor restarts the chunker at
        # an old boundary without the bytes before it, and a node it
        # patches in place cannot move a cut in the node after it.
        for name, config in (("leaf", self.leaf), ("index", self.index)):
            if config.min_size < config.window:
                raise ValueError(
                    f"{name} chunker min_size ({config.min_size}) must be >= "
                    f"window ({config.window}) for splice editing to be exact"
                )
        if self.index.min_entries < 2:
            raise ValueError(
                "index chunker needs min_entries >= 2: single-entry index "
                "nodes can repeat forever and the tree never reaches a root"
            )

    def scaled(self, leaf_target: int, index_target: int = 0) -> "TreeConfig":
        """Derive a config with the given expected node sizes in bytes."""
        index_target = index_target or max(256, leaf_target // 4)
        return TreeConfig(
            leaf=self.leaf.with_target(leaf_target),
            index=self.index.with_target(index_target),
        )


#: Shared default used by every typed object unless overridden.
DEFAULT_TREE_CONFIG = TreeConfig()
