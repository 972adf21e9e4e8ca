"""Persistent campaign storage: the SQLite store behind ``--db``.

See :mod:`repro.store.schema` for the data model and
:mod:`repro.store.db` for the engine-facing adapter.
"""

from .db import CampaignDB, CampaignStoreError, DBCheckpointStore, DBProgressSink
from .schema import SCHEMA, SCHEMA_VERSION

__all__ = [
    "CampaignDB",
    "CampaignStoreError",
    "DBCheckpointStore",
    "DBProgressSink",
    "SCHEMA",
    "SCHEMA_VERSION",
]
