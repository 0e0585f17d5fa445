"""Precision assignments: points in the mixed-precision design space.

An assignment maps every search atom to a kind (4 or 32-bit, 8 or
64-bit).  Assignments are immutable and hashable so searches can
deduplicate variants (the paper counts *unique* procedure variants in
Figure 6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from ..errors import SearchError
from ..fortran.symbols import KIND_DOUBLE, KIND_SINGLE
from .atoms import SearchAtom

__all__ = ["PrecisionAssignment"]


@dataclass(frozen=True)
class PrecisionAssignment:
    """Immutable atom → kind mapping over a fixed atom ordering."""

    atoms: tuple[SearchAtom, ...]
    kinds: tuple[int, ...]

    def __post_init__(self):
        if len(self.atoms) != len(self.kinds):
            raise SearchError("atoms/kinds length mismatch")
        for k in self.kinds:
            if k not in (KIND_SINGLE, KIND_DOUBLE):
                raise SearchError(f"unsupported kind {k}")

    # -- constructors -------------------------------------------------------

    @classmethod
    def uniform(cls, atoms: Iterable[SearchAtom],
                kind: int) -> "PrecisionAssignment":
        atoms = tuple(atoms)
        return cls(atoms=atoms, kinds=tuple(kind for _ in atoms))

    @classmethod
    def baseline(cls, atoms: Iterable[SearchAtom]) -> "PrecisionAssignment":
        """The original declared kinds (identity assignment)."""
        atoms = tuple(atoms)
        return cls(atoms=atoms, kinds=tuple(a.declared_kind for a in atoms))

    # -- queries --------------------------------------------------------------

    def kind_of(self, qualified: str) -> int:
        for a, k in zip(self.atoms, self.kinds):
            if a.qualified == qualified:
                return k
        raise SearchError(f"{qualified!r} is not a search atom")

    def lowered(self) -> set[str]:
        """Qualified names currently at 32-bit."""
        return {a.qualified for a, k in zip(self.atoms, self.kinds)
                if k == KIND_SINGLE}

    def high(self) -> set[str]:
        """Qualified names currently at 64-bit."""
        return {a.qualified for a, k in zip(self.atoms, self.kinds)
                if k == KIND_DOUBLE}

    @property
    def fraction_lowered(self) -> float:
        if not self.kinds:
            return 0.0
        return sum(1 for k in self.kinds if k == KIND_SINGLE) / len(self.kinds)

    def overlay(self) -> dict[str, int]:
        """The interpreter/transformer mapping (only changed atoms)."""
        return {
            a.qualified: k
            for a, k in zip(self.atoms, self.kinds)
            if k != a.declared_kind
        }

    def as_mapping(self) -> Mapping[str, int]:
        return dict(zip((a.qualified for a in self.atoms), self.kinds))

    # -- derivation --------------------------------------------------------------

    def with_kinds(self, changes: Mapping[str, int]) -> "PrecisionAssignment":
        """A copy with some atoms' kinds replaced."""
        unknown = set(changes) - {a.qualified for a in self.atoms}
        if unknown:
            raise SearchError(f"not search atoms: {sorted(unknown)[:5]}")
        kinds = tuple(
            changes.get(a.qualified, k)
            for a, k in zip(self.atoms, self.kinds)
        )
        return PrecisionAssignment(atoms=self.atoms, kinds=kinds)

    def lower_all(self, names: Iterable[str]) -> "PrecisionAssignment":
        return self.with_kinds({n: KIND_SINGLE for n in names})

    def raise_all(self, names: Iterable[str]) -> "PrecisionAssignment":
        return self.with_kinds({n: KIND_DOUBLE for n in names})

    def diff(self, other: "PrecisionAssignment") -> list[tuple[str, int, int]]:
        """(qualified, self kind, other kind) for differing atoms."""
        out = []
        for a, k1, k2 in zip(self.atoms, self.kinds, other.kinds):
            if k1 != k2:
                out.append((a.qualified, k1, k2))
        return out

    def key(self) -> tuple[int, ...]:
        """Hashable identity (kinds over the fixed atom order)."""
        return self.kinds

    def __iter__(self) -> Iterator[tuple[SearchAtom, int]]:
        return iter(zip(self.atoms, self.kinds))

    def __len__(self) -> int:
        return len(self.atoms)
