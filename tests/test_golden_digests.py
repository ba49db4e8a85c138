"""Golden dataset digests: the released document pinned by literal.

Byte-identity tests elsewhere compare one encoder path with another, so
an encoder that is consistently wrong passes them all.  These literals
were recorded from the reference encoder (``json.dumps(indent=2)``);
any change to the document bytes, the pipeline's answers or the digest
itself breaks them.
"""

import pytest

from repro.core.snapshots import dataset_digest
from repro.system import SystemConfig, build_asdb
from repro.world import WorldConfig, generate_world

GOLDEN = {
    True: "a40ed34abd11fec53c4226f84eac385d",
    False: "d3f3f91de10eb3e809911d3c91a6a2f2",
}


@pytest.mark.parametrize("train_ml", [True, False], ids=["ml", "no-ml"])
def test_dataset_digest_is_pinned(train_ml):
    world = generate_world(WorldConfig(n_orgs=200, seed=42))
    built = build_asdb(world, SystemConfig(seed=42, train_ml=train_ml))
    dataset = built.asdb.classify_all()
    assert len(dataset) == 222
    assert dataset_digest(dataset) == GOLDEN[train_ml]
