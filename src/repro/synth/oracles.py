"""Oracles replacing SMASH's active measurements.

The paper's pruning stage "collect[s] the redirection chains by sending a
HTTP request to each server" and its verification step "send[s] the HTTP
requests to verify the existence of those servers" (Sections III-D, V-A1).
We cannot probe a synthetic universe over the network, so the generator
records the answers those probes would give:

* :class:`RedirectOracle` — which servers sit on a redirect chain and what
  the landing server of the chain is;
* :class:`HostLiveness` — whether a domain still resolves at verification
  time (malicious domains are short-lived; Section V-A1, footnote 8).
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.httplog.redirects import RedirectOracle

__all__ = ["HostLiveness", "RedirectOracle"]


class HostLiveness:
    """Records which servers still "exist" when the analyst verifies them."""

    def __init__(self, dead: Iterable[str] = ()) -> None:
        self._dead = set(dead)

    def mark_dead(self, server: str) -> None:
        self._dead.add(server)

    def is_alive(self, server: str) -> bool:
        """True when a verification-time HTTP probe would still succeed."""
        return server not in self._dead

    @property
    def dead_servers(self) -> frozenset[str]:
        return frozenset(self._dead)
