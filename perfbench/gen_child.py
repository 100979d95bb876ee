"""Child process for `generate_peak_rss_mb`: parse and generate one model,
then print this process's peak resident set size in MiB.

Usage: python3 gen_child.py <blockgen src dir> <model file>
"""

import resource
import sys


def main(src, model_path):
    sys.path.insert(0, src)
    from blockgen import model as md
    from blockgen.cemit import EmitConfig
    with open(model_path) as f:
        parsed = md.parse_model(f.read())
    md.generate(parsed, EmitConfig(block_id=parsed.base_id, include_runtime_header=False))
    # ru_maxrss is in KiB on Linux
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)


if __name__ == "__main__":
    main(*sys.argv[1:])
