"""Re-sign an edited checkpoint header, so that a load gets past the digest to the check
that a test aims at."""
import hashlib
import json


def resign(header: dict, blob: bytes):
    """Set ``header["sha256"]`` to the digest that a load checks: of the binary section
    alone in version 1, and from version 2 on of the header without its digest (sorted
    keys) followed by the binary section."""
    unsigned = {key: value for key, value in header.items() if key != "sha256"}
    signed = b"" if header.get("format_version") == 1 else json.dumps(
        unsigned, sort_keys=True).encode()
    header["sha256"] = hashlib.sha256(signed + blob).hexdigest()
