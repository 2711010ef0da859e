"""Pluggable result stores for the experiment engine.

The store package splits the old monolithic ``engine.cache`` module
into a small :class:`CacheBackend` protocol plus interchangeable
implementations, so one campaign can be sharded across hosts and its
results merged back into a single store:

* :mod:`~repro.engine.store.base` — the protocol, the canonical entry
  codec, version-reachability rules, and :func:`merge_stores`;
* :mod:`~repro.engine.store.localdir` — :class:`LocalDirStore`, the
  original one-JSON-file-per-entry sharded directory (existing
  ``.repro_cache/`` directories keep working unchanged);
* :mod:`~repro.engine.store.sqlite` — :class:`SqlitePackStore`, a
  single WAL-mode SQLite file: safe for concurrent shard writers on
  one host, one inode for 10k+ entries, and the transport format for
  ``cache export`` / ``cache merge``;
* :mod:`~repro.engine.store.http` — :class:`RemoteStore`, the same
  protocol over a minimal JSON/HTTP wire format against a ``python -m
  repro serve`` endpoint (:class:`StoreServer`), so shard hosts
  rendezvous into one network store with no pack-file shipping;
* :mod:`~repro.engine.store.frontend` — :class:`ResultCache`, the
  engine-facing wrapper adding the SimResult codec, hit counters,
  batched ``get_many``/``put_many``, and the ``REPRO_CACHE_MAX_BYTES``
  auto-GC;
* :mod:`~repro.engine.store.faulty` — :class:`FaultyBackend`, a
  deterministic fault-injection wrapper around any backend (chaos
  tests for the engine's write-back and the queue's retry paths).

Backends are selected by an explicit location scheme (``dir:``,
``sqlite:``, ``http://``/``https://``) through :func:`open_backend`'s
scheme registry, and any other ``<scheme>://`` location is rejected.
The historical suffix-sniffing forms (``*.sqlite``/``*.db``/``*.pack``
paths, ``REPRO_CACHE_BACKEND=sqlite`` on a plain path) keep working as
deprecated aliases that log a one-line warning.  Iteration over any
backend is **cursored**: ``iter_keys(start_after, limit)`` returns one
bounded sorted page, and the maintenance paths (``stats``/``gc``/
``merge_stores``) stream pages via :func:`iter_key_pages`, so no store
operation ever materializes a full key set — the property that lets a
campaign cache grow past one process's memory.
"""

from ..._lazy import lazy_exports

#: Public name -> defining submodule, grouped by submodule; resolved on
#: first access (see :mod:`repro._lazy`).
_EXPORTS = {
    ".base": (
        "BACKEND_ENV",
        "CACHE_DIR_ENV",
        "DEFAULT_CACHE_DIR",
        "DEFAULT_KEY_BATCH",
        "MAX_BYTES_ENV",
        "PACK_SUFFIXES",
        "REMOTE_PREFIXES",
        "SCHEME_REGISTRY",
        "SCHEMA_VERSION",
        "CacheBackend",
        "CacheStats",
        "GCReport",
        "MergeReport",
        "RawEntry",
        "RemoteAuthError",
        "RemoteStoreError",
        "default_cache_dir",
        "encode_entry",
        "entry_is_unreachable",
        "iter_all_keys",
        "iter_key_pages",
        "merge_stores",
        "open_backend",
    ),
    ".faulty": ("DEFAULT_FAILABLE_OPS", "FaultyBackend", "InjectedFault"),
    ".frontend": ("ResultCache",),
    ".http": (
        "DEFAULT_PORT",
        "PROTOCOL_VERSION",
        "TOKEN_ENV",
        "RemoteStore",
        "StoreServer",
    ),
    ".localdir": ("LocalDirStore",),
    ".sqlite": ("SqlitePackStore",),
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "BACKEND_ENV",
    "CACHE_DIR_ENV",
    "DEFAULT_CACHE_DIR",
    "DEFAULT_FAILABLE_OPS",
    "DEFAULT_KEY_BATCH",
    "DEFAULT_PORT",
    "MAX_BYTES_ENV",
    "PACK_SUFFIXES",
    "PROTOCOL_VERSION",
    "REMOTE_PREFIXES",
    "SCHEMA_VERSION",
    "SCHEME_REGISTRY",
    "TOKEN_ENV",
    "CacheBackend",
    "CacheStats",
    "FaultyBackend",
    "GCReport",
    "InjectedFault",
    "LocalDirStore",
    "MergeReport",
    "RawEntry",
    "RemoteAuthError",
    "RemoteStore",
    "RemoteStoreError",
    "ResultCache",
    "SqlitePackStore",
    "StoreServer",
    "default_cache_dir",
    "encode_entry",
    "entry_is_unreachable",
    "iter_all_keys",
    "iter_key_pages",
    "merge_stores",
    "open_backend",
]
