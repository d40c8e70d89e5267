"""Seeded synthetic traffic files in the NSL-KDD column layout.

The benchmark owns its generator so that edits to the test-suite data cannot
move its baseline. The design follows the test suite's synthetic traffic:

* ``flood`` (~15% of rows) is exactly separable by ``wrong_fragment >= 2``
  and also carries a high ``count``; trees on it are shallow.
* ``burst`` (~20%) overlaps benign traffic on ``src_bytes`` and
  ``srv_count``, so no mask separates it and trees fit noise to purity.
* ``normal`` makes up the rest; 5% of it carries one bad fragment.

Every row has 43 columns (41 features, label, difficulty score). The test
file carries a service (``telnet``) that the training file never has, so the
codebook extension path runs on every load.

Generation is vectorised and fully determined by ``(seed, stream)``.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

# the column layout of gafs.nslkdd.FEATURE_NAMES, restated so that generating
# inputs does not depend on the package under measurement
FEATURE_NAMES = (
    "duration", "protocol_type", "service", "flag", "src_bytes", "dst_bytes",
    "land", "wrong_fragment", "urgent", "hot", "num_failed_logins",
    "logged_in", "num_compromised", "root_shell", "su_attempted", "num_root",
    "num_file_creations", "num_shells", "num_access_files",
    "num_outbound_cmds", "is_host_login", "is_guest_login", "count",
    "srv_count", "serror_rate", "srv_serror_rate", "rerror_rate",
    "srv_rerror_rate", "same_srv_rate", "diff_srv_rate", "srv_diff_host_rate",
    "dst_host_count", "dst_host_srv_count", "dst_host_same_srv_rate",
    "dst_host_diff_srv_rate", "dst_host_same_src_port_rate",
    "dst_host_srv_diff_host_rate", "dst_host_serror_rate",
    "dst_host_srv_serror_rate", "dst_host_rerror_rate",
    "dst_host_srv_rerror_rate",
)
COL = {name: i for i, name in enumerate(FEATURE_NAMES)}

PROTOCOLS = np.array(["tcp", "udp", "icmp"])
SERVICES = np.array(["http", "private", "ftp_data", "smtp", "domain_u"])
FLAGS = np.array(["SF", "S0", "REJ"])
UNSEEN_SERVICE = "telnet"
UNSEEN_EVERY = 97  # every 97th test row uses the unseen service


def _ints(values: np.ndarray) -> list[str]:
    return list(map(str, values.tolist()))


def _rates(values: np.ndarray) -> list[str]:
    return [f"{v:.2f}" for v in values.tolist()]


def synth_columns(n: int, seed: int, stream: int, unseen_service: bool) -> tuple[list[list[str]], np.ndarray]:
    """Column-major string fields plus the label of each row."""
    rng = np.random.default_rng([seed, stream])
    kind = rng.random(n)
    flood = kind < 0.15
    burst = (kind >= 0.15) & (kind < 0.35)
    normal = kind >= 0.35

    protocol = PROTOCOLS[rng.integers(0, len(PROTOCOLS), n)]
    protocol[flood] = "udp"
    service = SERVICES[rng.integers(0, len(SERVICES), n)].astype(object)
    if unseen_service:
        service[::UNSEEN_EVERY] = UNSEEN_SERVICE
    flag = FLAGS[rng.integers(0, len(FLAGS), n)]

    src_bytes = rng.integers(0, 2000, n)
    src_bytes[burst] = rng.normal(2400, 700, int(burst.sum())).astype(np.int64)
    srv_count = rng.integers(0, 40, n)
    srv_count[burst] = rng.integers(20, 90, int(burst.sum()))
    count = rng.integers(0, 60, n)
    count[flood] = rng.integers(100, 400, int(flood.sum()))
    wrong_fragment = np.zeros(n, dtype=np.int64)
    wrong_fragment[flood] = rng.integers(2, 4, int(flood.sum()))
    wrong_fragment[normal & (rng.random(n) < 0.05)] = 1

    zero = ["0"] * n
    columns = [zero] * len(FEATURE_NAMES)
    columns[COL["duration"]] = _ints(rng.integers(0, 50, n))
    columns[COL["protocol_type"]] = protocol.tolist()
    columns[COL["service"]] = service.tolist()
    columns[COL["flag"]] = flag.tolist()
    columns[COL["src_bytes"]] = _ints(src_bytes)
    columns[COL["dst_bytes"]] = _ints(rng.integers(0, 3000, n))
    columns[COL["wrong_fragment"]] = _ints(wrong_fragment)
    columns[COL["logged_in"]] = _ints(rng.integers(0, 2, n))
    columns[COL["count"]] = _ints(count)
    columns[COL["srv_count"]] = _ints(srv_count)
    columns[COL["same_srv_rate"]] = _rates(rng.random(n))
    columns[COL["diff_srv_rate"]] = _rates(rng.random(n))
    columns[COL["dst_host_count"]] = _ints(rng.integers(0, 256, n))

    labels = np.where(flood, "flood", np.where(burst, "burst", "normal"))
    return columns, labels


def write_pair(workdir: Path, seed: int, train_rows: int, test_rows: int) -> dict:
    """Write ``train.txt`` and ``test.txt`` into ``workdir``; return their facts.

    The facts (row and label counts) let the output checks work on any seed.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    facts: dict = {}
    for role, stream, n, unseen in (("train", 0, train_rows, False), ("test", 1, test_rows, True)):
        columns, labels = synth_columns(n, seed, stream, unseen)
        difficulty = _ints(np.arange(n) % 22)
        rows = zip(*columns, labels.tolist(), difficulty)
        path = workdir / f"{role}.txt"
        path.write_text("\n".join(",".join(row) for row in rows) + "\n")
        facts[role] = {
            "path": str(path),
            "rows": n,
            "labels": {name: int(np.count_nonzero(labels == name))
                       for name in ("flood", "burst", "normal")},
        }
    return facts
