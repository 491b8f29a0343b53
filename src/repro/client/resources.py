"""Per-resource clients over :class:`~repro.client.api.APIClient`.

One thin client per wire resource — datasets, views, updates, server admin —
so SDK users compose exactly what they need::

    api = APIClient("http://127.0.0.1:8765")
    datasets = DatasetsClient(api, tenant="team-a")
    datasets.create("M", fields=["name", "gen", "dir"], rows=[...])
    UpdatesClient(api, tenant="team-a").apply({"M": {"rows": [[...]]}})
    print(ViewsClient(api, tenant="team-a").show("dramas")["pairs"])

All methods return the decoded JSON response bodies; wire values come back
in protocol encoding (tuples as lists, inner bags as ``{"bag": pairs}`` —
see :mod:`repro.serve.protocol`).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Union

from repro.client.api import APIClient

__all__ = [
    "DatasetsClient",
    "ReplicationClient",
    "ServerClient",
    "UpdatesClient",
    "ViewsClient",
]


def _etag_header(etag: Union[int, str]) -> str:
    """Normalize an ETag argument: an int version becomes ``"<version>"``."""
    if isinstance(etag, int):
        return f'"{etag}"'
    tag = etag.strip()
    return tag if tag.startswith('"') or tag.startswith("W/") else f'"{tag}"'


def _read_suffix(base: str, limit: Optional[int], offset: Optional[int]) -> str:
    params = []
    if limit is not None:
        params.append(f"limit={limit}")
    if offset is not None:
        params.append(f"offset={offset}")
    return base + (("?" + "&".join(params)) if params else "")


class _TenantClient:
    def __init__(self, api: APIClient, tenant: str = "default") -> None:
        self.api = api
        self.tenant = tenant

    def _path(self, suffix: str) -> str:
        return f"v1/{self.tenant}/{suffix}"


class DatasetsClient(_TenantClient):
    """``/v1/{tenant}/datasets``."""

    def list(self) -> Dict[str, Any]:
        return self.api.get(self._path("datasets"))

    def create(
        self,
        name: str,
        fields: List[Any],
        rows: Optional[List[Any]] = None,
    ) -> Dict[str, Any]:
        body: Dict[str, Any] = {"name": name, "fields": fields}
        if rows is not None:
            body["rows"] = rows
        return self.api.post(self._path("datasets"), body)

    def show(
        self,
        name: str,
        *,
        etag: Optional[Union[int, str]] = None,
        limit: Optional[int] = None,
        offset: Optional[int] = None,
    ) -> Dict[str, Any]:
        """Dataset contents; ``etag`` makes the read conditional (may come
        back ``{"unchanged": True}``), ``limit``/``offset`` page the pairs."""
        headers = {"If-None-Match": _etag_header(etag)} if etag is not None else None
        return self.api.get(
            self._path(_read_suffix(f"datasets/{name}", limit, offset)),
            headers=headers,
        )


class ViewsClient(_TenantClient):
    """``/v1/{tenant}/views``."""

    def list(self) -> Dict[str, Any]:
        return self.api.get(self._path("views"))

    def create(
        self, name: str, query: Dict[str, Any], strategy: str = "auto"
    ) -> Dict[str, Any]:
        return self.api.post(
            self._path("views"),
            {"name": name, "query": query, "strategy": strategy},
        )

    def show(
        self,
        name: str,
        *,
        etag: Optional[Union[int, str]] = None,
        limit: Optional[int] = None,
        offset: Optional[int] = None,
    ) -> Dict[str, Any]:
        """View result at the pinned snapshot.

        ``etag`` (an int version or the ETag string from a prior read)
        sends ``If-None-Match`` — an unchanged view answers a body-less 304
        that decodes to ``{"unchanged": True, ...}``.  ``limit``/``offset``
        page the pairs without the server materializing the merged result.
        """
        headers = {"If-None-Match": _etag_header(etag)} if etag is not None else None
        return self.api.get(
            self._path(_read_suffix(f"views/{name}", limit, offset)),
            headers=headers,
        )

    def explain(self, name: str) -> Dict[str, Any]:
        return self.api.get(self._path(f"views/{name}/explain"))

    def indexes(self, name: str) -> Dict[str, Any]:
        return self.api.get(self._path(f"views/{name}/indexes"))


class UpdatesClient(_TenantClient):
    """``/v1/{tenant}/apply`` and storage maintenance."""

    def apply(
        self, *updates: Dict[str, Any], mode: str = "sync"
    ) -> Dict[str, Any]:
        """Apply updates; each is a ``{relation: {"rows"|"pairs": ...}}`` map."""
        return self.api.post(
            self._path("apply"), {"updates": list(updates), "mode": mode}
        )

    def insert(self, relation: str, rows: List[Any], mode: str = "sync") -> Dict[str, Any]:
        return self.apply({relation: {"rows": rows}}, mode=mode)

    def vacuum(self) -> Dict[str, Any]:
        return self.api.post(self._path("vacuum"))

    def checkpoint(self) -> Dict[str, Any]:
        """Cut a durable snapshot checkpoint (requires a server data dir)."""
        return self.api.post(self._path("checkpoint"))

    def snapshot(
        self,
        *,
        etag: Optional[Union[int, str]] = None,
        limit: Optional[int] = None,
        offset: Optional[int] = None,
    ) -> Dict[str, Any]:
        """Every dataset + view at one version; same conditional-read and
        paging contract as :meth:`ViewsClient.show` (paging applies to each
        bag in the snapshot independently)."""
        headers = {"If-None-Match": _etag_header(etag)} if etag is not None else None
        return self.api.get(
            self._path(_read_suffix("snapshot", limit, offset)),
            headers=headers,
        )

    def storage(self) -> Dict[str, Any]:
        return self.api.get(self._path("storage"))


class ReplicationClient(_TenantClient):
    """``/v1/{tenant}/replication``, ``/promote``, ``/demote``."""

    def status(self) -> Dict[str, Any]:
        """Role, epoch, WAL positions and replication lag for the tenant."""
        return self.api.get(self._path("replication"))

    def promote(self, *, epoch: Optional[int] = None) -> Dict[str, Any]:
        """Flip a replica (or a recovery-degraded primary) writable.

        The server bumps the fencing epoch past everything it has observed
        unless an explicit ``epoch`` is given, and fences the old upstream
        best-effort.  Idempotent on a tenant that is already primary.
        """
        body: Dict[str, Any] = {}
        if epoch is not None:
            body["epoch"] = epoch
        return self.api.post(self._path("promote"), body)

    def demote(self, epoch: int, reason: str = "demoted by operator") -> Dict[str, Any]:
        """Fence the tenant at ``epoch`` (must supersede its current epoch)."""
        return self.api.post(
            self._path("demote"), {"epoch": epoch, "reason": reason}
        )


class ServerClient:
    """Server-wide endpoints (no tenant)."""

    def __init__(self, api: APIClient) -> None:
        self.api = api

    def health(self) -> Dict[str, Any]:
        return self.api.get("health")

    def stats(self) -> Dict[str, Any]:
        return self.api.get("stats")
