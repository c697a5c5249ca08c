"""Redirect-chain sidecar: which servers sit on a redirect chain.

SMASH's pruning stage "collect[s] the redirection chains by sending a
HTTP request to each server" (Section III-D).  :class:`RedirectOracle`
holds the answers those probes give — each chain member's landing
server — and is what ``redirects.json`` sidecars, trace-store
partitions and checkpoints serialise.  The synthetic generator records
one per day (:mod:`repro.synth.oracles` re-exports it).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping


class RedirectOracle:
    """Maps chain members to their landing server."""

    def __init__(self, landing_of: Mapping[str, str] | None = None) -> None:
        self._landing_of: dict[str, str] = dict(landing_of or {})

    def add_chain(self, chain: Iterable[str]) -> None:
        """Record a redirect chain; the last element is the landing server."""
        members = list(chain)
        if len(members) < 2:
            raise ValueError("a redirect chain needs at least two members")
        landing = members[-1]
        for member in members:
            self._landing_of[member] = landing

    def landing_server(self, server: str) -> str | None:
        """The landing server of *server*'s chain, or None if not on a chain.

        The landing server maps to itself.
        """
        return self._landing_of.get(server)

    def on_chain(self, server: str) -> bool:
        return server in self._landing_of

    def chain_members(self) -> frozenset[str]:
        return frozenset(self._landing_of)

    def to_dict(self) -> dict[str, str]:
        """The landing-server mapping, sorted (the redirects.json sidecar
        and streaming-checkpoint schema; inverse of :meth:`from_dict`)."""
        return dict(sorted(self._landing_of.items()))

    @classmethod
    def from_dict(cls, mapping: Mapping[str, str]) -> "RedirectOracle":
        return cls(landing_of=mapping)


__all__ = ["RedirectOracle"]
