"""Skeleton pins: every op field and the three handle tables of each
registered app's skeleton (class T) and of LU on 8 ranks, as sha256
fingerprints taken when skeletons still came from a separate
record-only dry run.  Whatever builds a skeleton must reproduce them."""

from __future__ import annotations

import hashlib

import pytest

from repro.analyze import extract_skeleton
from repro.apps import make_app
from repro.apps.npb.lu_kernel import LUKernel

SKELETON_PINS = {
    "cg": "b1d779a2355689e6d10759a12c57bd832941c9b626ccddd7461679d714470a3a",
    "ft": "deec43d7fd95177750e1d5c07783f3a92849b5fb9746ab14167cb6a1f12c9871",
    "is": "04d8aae96b5890a065d0161fea3df967ec08b49e88a6f7d3239e27f835554fe7",
    "lammps": "f622c9b43fbc9647141ebb696caa5467b1a4b8b4c2806bdd9595dd8fdf63fbe9",
    "lu": "9ad1bb00d3b239b3a1684111c1c69535047066b7b78a7516badeef7fb7ff2308",
    "mg": "0070ed49b19da6914117085e1cd342edc15fa57eab0ded204750fa70eebc13e3",
    "lu@8": "8b5b97734400a231d152b8d614b63ff475aa16c00ff11a07e59e38bbc865a44c",
}


def _app(name: str):
    if name == "lu@8":
        return LUKernel(8, rows_per_rank=16, ncols=128, iterations=30, omega=1.2, seed=99)
    return make_app(name, "T")


def _table(t) -> tuple:
    return (t.kind, t.base, t.top, sorted(t.descr.items()),
            sorted(t.groups.items()), sorted(t.sizes.items()))


def _op(op) -> tuple:
    return (op.rank, op.name, op.site, op.invocation, op.seq, op.phase, op.comm_group,
            op.comm_context, op.me, op.root_world, op.dtype, op.dtype_size, op.op,
            op.op_commutative, sorted(op.args.items()), op.stack)


def skeleton_fingerprint(sk) -> str:
    h = hashlib.sha256()
    h.update(repr((sk.app_name, sk.nranks, sk.arena_base, sk.arena_size,
                   sorted(sk.algorithms.items()))).encode())
    for table in (sk.datatypes, sk.reduce_ops, sk.comms):
        h.update(repr(_table(table)).encode())
    for seq in sk.ranks:
        for op in seq:
            h.update(repr(_op(op)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(SKELETON_PINS))
def test_skeleton_fingerprint_pinned(name):
    assert skeleton_fingerprint(extract_skeleton(_app(name))) == SKELETON_PINS[name]
