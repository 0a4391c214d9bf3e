"""The bounded zero-one loss that the deviation and symmetrization checks
score threshold classifiers with."""
from __future__ import annotations

from dataclasses import dataclass

LOSS_KINDS = ("zero_one",)


@dataclass(frozen=True)
class LossSpec:
    """A bounded loss with its range B."""

    kind: str
    range_b: float = None

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {self.kind!r}")


def zero_one_loss():
    return LossSpec(kind="zero_one", range_b=1.0)
