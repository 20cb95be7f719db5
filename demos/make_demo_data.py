"""
Generate the synthetic corpora referenced by demos/configs/*.ini
================================================================

Writes everything under demos/data/. Run once, then point the CLI at
any config in demos/configs, for example:

    python demos/make_demo_data.py
    styloprof run --config demos/configs/split_gender.ini --output /tmp/r.txt
"""

import random
from pathlib import Path

from styloprof.corpus import Document, LabelSet, Sample, save_pan_truth_dir
from styloprof.synthetic import write_marker_csv

data = Path(__file__).resolve().parent / "data"
data.mkdir(exist_ok=True)

# flat comment corpora: id,gender,text rows
write_marker_csv(data / "train_es.csv", n_docs=240, seed=0)
write_marker_csv(data / "eval_es.csv", n_docs=60, seed=9)
write_marker_csv(data / "sweep_es.csv", n_docs=600, seed=1, marker_rate=0.3)

# a truth-dir corpus: truth.txt plus one text file per author, carrying
# gender, age band and the five trait values
rng = random.Random(7)
BANDS = ("18-24", "25-34", "35-49", "50-XX")
PHRASES = {"18-24": "jaja netflix uni", "25-34": "curro gym finde",
           "35-49": "peques cole trabajo", "50-XX": "nietos huerto misa"}
samples = []
for i in range(32):
    band = BANDS[i % 4]
    gender = "Female" if i % 2 == 0 else "Male"
    style = ":) :D" if gender == "Female" else "!!! ???"
    docs = []
    for j in range(3):
        words = (PHRASES[band] + " hola gente " + style).split()
        rng.shuffle(words)
        docs.append(Document(id=f"author{i:02d}/{j}", text=" ".join(words)))
    samples.append(Sample(
        id=f"author{i:02d}", documents=docs,
        labels=LabelSet(gender=gender, age_band=band,
                        traits={"E": 0.2 if gender == "Female" else -0.2,
                                "N": 0.0, "A": 0.1, "C": -0.1, "O": 0.15}),
    ))
save_pan_truth_dir(samples, str(data / "pan_es"))

print(f"wrote train_es.csv, eval_es.csv, sweep_es.csv and pan_es/ under {data}")
