"""Import layering: the serving and delivery layers stand apart from perf."""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def test_serve_and_delivery_load_no_perf_module():
    # A fresh interpreter: this test process has long since imported
    # repro.perf through other tests.
    code = (
        "import sys\n"
        "import repro.serve, repro.delivery\n"
        "print(','.join(sorted(m for m in sys.modules\n"
        "    if m == 'repro.perf' or m.startswith('repro.perf.'))))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        check=True,
    )
    assert result.stdout.strip() == ""
