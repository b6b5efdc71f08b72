import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "golden.py"


def _golden_module():
    spec = importlib.util.spec_from_file_location("scripts_golden", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_golden_records_keep_their_bits():
    # every record of scripts/golden.py's argvs hashes as the file keeps it for this core and
    # thread count; a change that moves one rewrites the file with --update and says so
    golden = _golden_module()
    key = golden.blas_key()
    stored = json.loads(golden.FILE.read_text()).get(key)
    if stored is None:
        pytest.skip(f"no golden records for OpenBLAS {key}")
    assert sorted(stored) == sorted(golden.ARGVS)
    bad = []
    for argv in golden.ARGVS:
        fields = golden.moved(stored[argv], golden.results(argv))
        if fields:
            bad.append(f"{argv!r}: {fields[0]}")
    assert not bad, "records moved (argv: first field that differs): " + "; ".join(bad)
