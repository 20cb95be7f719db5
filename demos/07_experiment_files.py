"""
Config-driven experiments and self-describing result files
==========================================================

One INI file specifies corpus, task, scaling, split and training
settings. The run writes a result file carrying enough provenance
(config text, corpus and vocabulary hashes, seeds) to reproduce the
metrics bit for bit.
"""

import tempfile
from pathlib import Path

from styloprof.experiment import (extract_config, parse_config_text,
                                  render_result, run_experiment, strip_timings)
from styloprof.synthetic import write_marker_csv

work = Path(tempfile.mkdtemp(prefix="styloprof-demo-"))
write_marker_csv(work / "train.csv", n_docs=200, seed=0)

CONFIG = """\
[experiment]
task = gender
train_fraction = 0.7
split_seed = 0

[train_corpus]
format = FlatCsv
path = train.csv
language = es
"""

result = run_experiment(parse_config_text(CONFIG, base_dir=str(work)))
text = render_result(result)
print("\n".join(text.splitlines()[:14]))
print("...")

# the embedded config block is recoverable, and re-running it gives the
# identical result once wall-clock timings are stripped
recovered = extract_config(text)
assert recovered == CONFIG
again = run_experiment(parse_config_text(recovered, base_dir=str(work)))
print("deterministic re-run:",
      strip_timings(render_result(again)) == strip_timings(text))

# a sweep trains one independent sub-experiment per sample size k;
# pooling more comments per sample makes weak signal usable
write_marker_csv(work / "sweep.csv", n_docs=600, seed=1, marker_rate=0.3)
SWEEP = CONFIG.replace("train.csv", "sweep.csv") + "\n[sweep]\nk_values = 1, 4, 8\n"
swept = run_experiment(parse_config_text(SWEEP, base_dir=str(work)))
print("\nk vs accuracy:")
for k, run in swept.sweep:
    print(f"  k={k:<2} n_train={run.n_train:<3} "
          f"accuracy={run.class_report.accuracy:.3f}")
