"""Campaign stores written while bit flips and the other fault models
had separate spec types still load.

``units.payload`` is a pickle of the unit's ``TestResult`` list, and a
pickle names its spec class.  The payloads below were captured from IS
class T point 0, test 0 at seed 11 (policy ``all``) when a bit flip was
a three-field ``FaultSpec`` and a wire fault a ``ModelSpec``.  Each must
load as the spec ``draw_task`` draws today and commit the same
``results`` row.
"""

import pickle

import pytest

from repro.injection import FaultSpec, InjectionPoint
from repro.injection.models import draw_task
from repro.injection.runner import TestResult as InjectionTestResult
from repro.store import CampaignDB

POINT = InjectionPoint(0, "Allgather", "is_kernel.py:156", 0)
SEED = 11

BITFLIP_PAYLOAD = (
    b'\x80\x05\x95\xb7\x02\x00\x00\x00\x00\x00\x00]\x94\x8c\x16repro.injection.runner\x94\x8c\nTestResult\x94\x93\x94)\x81\x94'
    b'}\x94(\x8c\x04spec\x94\x8c\x15repro.injection.space\x94\x8c\tFaultSpec\x94\x93\x94)\x81\x94}\x94(\x8c\x05'
    b'point\x94h\x07\x8c\x0eInjectionPoint\x94\x93\x94)\x81\x94}\x94(\x8c\x04rank\x94K\x00\x8c\ncollective\x94\x8c'
    b'\tAllgather\x94\x8c\x04site\x94\x8c\x10is_kernel.py:156\x94\x8c\ninvocation\x94K\x00ub\x8c\x05'
    b'param\x94\x8c\x04comm\x94\x8c\x03bit\x94Nub\x8c\x07outcome\x94\x8c\x17repro.injection.outcom'
    b'e\x94\x8c\x07Outcome\x94\x93\x94\x8c\tSEG_FAULT\x94\x85\x94R\x94\x8c\x06record\x94\x8c\x18repro.injection'
    b'.injector\x94\x8c\x0fInjectionRecord\x94\x93\x94)\x81\x94}\x94(h\x17h\x18\x8c\x04kind\x94\x8c\x06handle\x94'
    b'h\x19K(\x8c\x0cextent_bytes\x94K\x00\x8c\x07skipped\x94\x89h\x12h\x13h\x14\x8c\x10is_kernel.py:156'
    b'\x94h\x16K\x00\x8c\x06before\x94\x8c\x0e0x7f4c00000000\x94\x8c\x05after\x94\x8c\x0e0x7e4c00000000\x94'
    b'ub\x8c\x06detail\x94\x8c\xabsegmentation fault: access [0x7e4c00000000,'
    b" 0x7e4c00000040) on rank 0; fault: bit 40 of handle 'com"
    b"m' in Allgather@is_kernel.py:156#inv0 (0x7f4c00000000 ->"
    b' 0x7e4c00000000)\x94\x8c\tpredicted\x94\x89uba.'
)
BITFLIP_ROW = (
    1, 'p0:t0-1', 0, 0, 0, 'Allgather', 'is_kernel.py:156',
    0, 'comm', 40, 'bitflip', 'SEG_FAULT', 1,
)

MSG_DROP_PAYLOAD = (
    b'\x80\x05\x95\xe1\x03\x00\x00\x00\x00\x00\x00]\x94\x8c\x16repro.injection.runner\x94\x8c\nTestResult\x94\x93\x94)\x81\x94'
    b'}\x94(\x8c\x04spec\x94\x8c\x15repro.injection.space\x94\x8c\tModelSpec\x94\x93\x94)\x81\x94}\x94(\x8c\x05'
    b'point\x94h\x07\x8c\x0eInjectionPoint\x94\x93\x94)\x81\x94}\x94(\x8c\x04rank\x94K\x00\x8c\ncollective\x94\x8c'
    b'\tAllgather\x94\x8c\x04site\x94\x8c\x10is_kernel.py:156\x94\x8c\ninvocation\x94K\x00ub\x8c\x05'
    b'model\x94\x8c\x08msg_drop\x94\x8c\x05param\x94\x8c\x07payload\x94\x8c\x03bit\x94N\x8c\x05width\x94K\x00\x8c\x05co'
    b'unt\x94K\x01\x8c\x06weight\x94K\x00\x8c\x08scenario\x94Nub\x8c\x07outcome\x94\x8c\x17repro.injecti'
    b'on.outcome\x94\x8c\x07Outcome\x94\x93\x94\x8c\x08INF_LOOP\x94\x85\x94R\x94\x8c\x06record\x94\x8c\x18repro.i'
    b'njection.injector\x94\x8c\x0fInjectionRecord\x94\x93\x94)\x81\x94}\x94(h\x19h\x1a\x8c\x04kind\x94h'
    b'\x18h\x1bJ\xff\xff\xff\xff\x8c\x0cextent_bytes\x94K\x00\x8c\x07skipped\x94\x89h\x12h\x13h\x14\x8c\x10is_kernel.py'
    b':156\x94h\x16K\x00\x8c\x06before\x94\x8c\x00\x94\x8c\x05after\x94\x8c\x13dropped 16B message\x94ub\x8c\x06d'
    b'etail\x94X\x9f\x01\x00\x00deadlock: rank 1<-src 0@MPI_COMM_WORLD tag 0x'
    b'2400 (a message from rank 0 is queued with tag 0x2401, n'
    b'ot the awaited 0x2400); rank 2<-src 1@MPI_COMM_WORLD tag'
    b' 0x2401 (source rank 1 is itself blocked (possible wait '
    b'cycle)); rank 3<-src 2@MPI_COMM_WORLD tag 0x2402 (source'
    b' rank 2 is itself blocked (possible wait cycle)); fault:'
    b" bit -1 of msg_drop 'payload' in Allgather@is_kernel.py:"
    b'156#inv0 ( -> dropped 16B message)\x94\x8c\tpredicted\x94\x89uba.'
)
MSG_DROP_ROW = (
    1, 'p0:t0-1', 0, 0, 0, 'Allgather', 'is_kernel.py:156',
    0, 'payload', -1, 'msg_drop', 'INF_LOOP', 1,
)

CASES = {
    "bitflip": (BITFLIP_PAYLOAD, BITFLIP_ROW),
    "msg_drop": (MSG_DROP_PAYLOAD, MSG_DROP_ROW),
}


def committed_row(tmp_path, test):
    """The ``results`` row ``CampaignDB.record_unit`` writes for one test."""
    with CampaignDB(tmp_path / f"{id(test)}.sqlite") as db:
        cid = db.create_campaign(
            "d" * 64, app="is", nranks=4, seed=SEED, tests_per_point=1,
            param_policy="all", unit_tests=1, algorithms={}, code_version="test",
            n_points=1, total_units=1,
        )
        db.record_unit(cid, "p0:t0-1", [test])
        (row,) = db.results(cid)
        return tuple(row)


@pytest.mark.parametrize("model", sorted(CASES))
def test_stored_payload_loads_as_todays_spec(tmp_path, model):
    payload, row = CASES[model]
    (stored,) = pickle.loads(payload)
    spec, _ = draw_task(POINT, SEED, 0, 0, policy="all", model=model)
    assert type(stored.spec) is FaultSpec
    assert stored.spec == spec and hash(stored.spec) == hash(spec)
    assert stored.spec.model == model

    assert committed_row(tmp_path, stored) == row + (stored.detail,)
    # Today's spec with the stored verdict commits the identical row.
    fresh = InjectionTestResult(spec, stored.outcome, stored.record, stored.detail)
    assert committed_row(tmp_path, fresh) == row + (stored.detail,)
