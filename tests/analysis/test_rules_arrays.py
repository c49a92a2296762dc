"""Fixture corpus for ARR001 (array persistence through ``repro.arrays``)."""

from .helpers import rule_diagnostics, rule_ids


class TestArr001AdHocArrayPersistence:
    def test_flags_tobytes_in_session_codec(self):
        found = rule_diagnostics("ARR001", "src/repro/fl/session/codec_fix.py", (
            "def encode(value):\n"
            "    return value.tobytes()\n"
        ))
        assert rule_ids(found) == ["ARR001"]
        assert "tobytes" in found[0].message

    def test_flags_tolist_in_store(self):
        found = rule_diagnostics("ARR001", "src/repro/runs/store.py", (
            "def record_of(array):\n"
            "    return {'points': array.ravel().tolist()}\n"
        ))
        assert rule_ids(found) == ["ARR001"]

    def test_flags_np_save_and_load(self):
        found = rule_diagnostics("ARR001", "src/repro/runs/scheduler.py", (
            "import numpy as np\n"
            "def persist(path, array):\n"
            "    np.save(path, array)\n"
            "    return np.load(path)\n"
        ))
        assert rule_ids(found) == ["ARR001", "ARR001"]
        assert "numpy.save" in found[0].message
        assert "numpy.load" in found[1].message

    def test_flags_frombuffer_in_embeddings(self):
        found = rule_diagnostics(
            "ARR001", "src/repro/experiments/embeddings.py", (
                "import numpy\n"
                "def thaw(blob):\n"
                "    return numpy.frombuffer(blob, dtype='<f8')\n"
            ))
        assert rule_ids(found) == ["ARR001"]

    def test_flags_tobytes_in_shared_memory_plane(self):
        found = rule_diagnostics("ARR001", "src/repro/data/shm.py", (
            "def add(segment, offset, array):\n"
            "    segment.buf[offset:offset + array.nbytes] = array.tobytes()\n"
        ))
        assert rule_ids(found) == ["ARR001"]
        assert "tobytes" in found[0].message

    def test_near_miss_shared_memory_plane_through_container(self):
        found = rule_diagnostics("ARR001", "src/repro/data/shm.py", (
            "from repro.arrays import ColumnLayout, unpack_columns\n"
            "def share(segment, columns):\n"
            "    ColumnLayout(columns).write_into(segment.buf)\n"
            "    return unpack_columns(segment.buf)\n"
        ))
        assert found == []

    def test_flags_aliased_numpy_import(self):
        found = rule_diagnostics("ARR001", "src/repro/fl/session/state_fix.py", (
            "from numpy import memmap as mapper\n"
            "def open_raw(path):\n"
            "    return mapper(path, dtype='<f8')\n"
        ))
        assert rule_ids(found) == ["ARR001"]

    def test_near_miss_out_of_scope_module(self):
        # The nn substrate juggles raw buffers freely - ARR001 polices the
        # persistence layer only.
        found = rule_diagnostics("ARR001", "src/repro/nn/trace_fix.py", (
            "import numpy as np\n"
            "def flat(array):\n"
            "    return np.frombuffer(array.tobytes(), dtype=array.dtype)\n"
        ))
        assert found == []

    def test_near_miss_sanctioned_container_calls(self):
        found = rule_diagnostics("ARR001", "src/repro/runs/store.py", (
            "from repro.arrays import read_columns, write_columns\n"
            "def save(path, columns):\n"
            "    write_columns(path, columns)\n"
            "    return read_columns(path, mmap=True)\n"
        ))
        assert found == []

    def test_near_miss_unrelated_attribute_names(self):
        # .tolist on a non-call attribute access, and methods that merely
        # contain the substring, stay clean.
        found = rule_diagnostics("ARR001", "src/repro/fl/session/codec_fix.py", (
            "def describe(array):\n"
            "    bound = array.tolist\n"
            "    return array.astype('<f8').sum()\n"
        ))
        assert found == []
