"""Set-up probe: interpreter start, `import medwer.cli`, and loading one
manifest and its annotations, then an immediate exit.

    PYTHONPATH=src python3 perfbench/setup_probe.py MANIFEST ANNOTATIONS

The caller times it from spawn to exit. It prints the number of transcript
pairs and annotation records it loaded, so the caller can check the load.
"""

import os
import sys


def main() -> None:
    import medwer.cli  # noqa: F401  (the import is part of what is measured)
    from medwer.corpus import load_annotations, load_manifest

    pairs = load_manifest(sys.argv[1])
    annotations = load_annotations(sys.argv[2], pairs)
    print(len(pairs), len(annotations), flush=True)
    os._exit(0)  # interpreter teardown is not set-up


if __name__ == "__main__":
    main()
