"""End-to-end CLI pipeline driver shared by CLI and acceptance tests."""

import os

from radpragma.cli import main

PRIMARY_OUTPUTS = ("labels.csv", "stats.csv", "stats.json", "chi2.csv",
                   "cleaned.jsonl", "clean_audit.jsonl", "index.json",
                   "generated.jsonl", "gen_audit.jsonl", "metrics.json",
                   "metrics.csv")


def pipeline_steps(corpus_path, outdir):
    """(paths, argv of each stage): label -> stats -> chi2 -> clean ->
    index -> generate -> evaluate."""
    paths = {name: os.path.join(outdir, name) for name in PRIMARY_OUTPUTS}
    steps = [
        ["label", "--in", corpus_path, "--out", paths["labels.csv"]],
        ["stats", "--in", corpus_path, "--labels", paths["labels.csv"],
         "--out", paths["stats.csv"], "--json", paths["stats.json"]],
        ["chi2", "--in", corpus_path, "--labels", paths["labels.csv"],
         "--all", "--out", paths["chi2.csv"]],
        ["clean", "--in", corpus_path, "--backend", "pattern",
         "--out", paths["cleaned.jsonl"], "--audit",
         paths["clean_audit.jsonl"]],
        ["index", "--in", paths["cleaned.jsonl"], "--out",
         paths["index.json"]],
        ["generate", "--requests", corpus_path, "--predictions",
         paths["labels.csv"], "--index", paths["index.json"],
         "--mode", "retrieval", "--out", paths["generated.jsonl"],
         "--audit", paths["gen_audit.jsonl"]],
        ["evaluate", "--generated", paths["generated.jsonl"],
         "--ref-original", corpus_path, "--ref-clean", paths["cleaned.jsonl"],
         "--out", paths["metrics.json"], "--csv", paths["metrics.csv"]],
    ]
    return paths, steps


def run_pipeline(corpus_path, outdir):
    """Run every stage of ``pipeline_steps`` in this process."""
    paths, steps = pipeline_steps(corpus_path, outdir)
    for argv in steps:
        code = main(argv)
        assert code == 0, f"step {argv[0]} exited {code}"
    return paths
