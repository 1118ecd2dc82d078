"""Command-line frontend: train, encode, gt, eval.

Configuration precedence is defaults < config file (key = value lines,
'#' comments) < command-line flags.  All randomness flows from --seed.
"""

import argparse
import json
import sys
import time

from hashlearn import dataio
from hashlearn.evaluation import euclidean_knn_gt, evaluate, label_gt
from hashlearn.network import SUPERVISED, UNSUPERVISED
from hashlearn.trainer import TrainConfig, encode as encode_codes, train_supervised, train_unsupervised

_MODE_ALIASES = {"unsup": UNSUPERVISED, "unsupervised": UNSUPERVISED,
                 "sup": SUPERVISED, "supervised": SUPERVISED}

# train flags that set the TrainConfig field of the same name (or the one _FIELD_OF_FLAG names);
# a flag left unset leaves TrainConfig's default
_CONFIG_FLAGS = ("lambda1", "lambda2", "lambda3", "lambda4", "max_iter", "ns", "seed", "center", "itq_iters")
_FIELD_OF_FLAG = {"ns": "n_per_class", "center": "center_inputs"}
_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}


def _parse_config_file(path, known):
    """key = value lines ('#' comments) for the train flags named in known; values stay
    strings for argparse to convert, except center, which is a boolean."""
    out = {}
    with open(path, "r", encoding="utf-8") as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError("%s:%d: expected key = value" % (path, lineno))
            key, value = (t.strip() for t in line.split("=", 1))
            key = key.replace("-", "_")
            if key not in known:
                raise ValueError("%s:%d: unknown key %r" % (path, lineno, key))
            if key == "center":
                if value.lower() not in _BOOLEANS:
                    raise ValueError("%s:%d: center: cannot parse %r as a boolean" % (path, lineno, value))
                value = _BOOLEANS[value.lower()]
            out[key] = value
    return out


def _parse_layers(text):
    try:
        sizes = [int(t) for t in str(text).replace(" ", "").split(",") if t != ""]
    except ValueError:
        raise ValueError("--layers: expected comma-separated integers, got %r" % (text,)) from None
    if not sizes:
        raise ValueError("--layers: no sizes given")
    return sizes


def _load_features(args, data_key="data", labels_key="labels"):
    path = getattr(args, data_key)
    if not path:
        raise ValueError("--%s is required" % data_key.replace("_", "-"))
    labels_path = getattr(args, labels_key)
    csv_labels = labels_path == "last"
    return dataio.load_dataset(path, args.format, labels_path=None if csv_labels else labels_path,
                               csv_labels=csv_labels)


def _train_config_from(args, n_dims):
    mode = _MODE_ALIASES.get(str(args.mode).lower())
    if mode is None:
        raise ValueError("--mode: expected unsup or sup, got %r" % (args.mode,))
    hidden = _parse_layers(args.layers) if args.layers is not None else None
    overrides = {_FIELD_OF_FLAG.get(flag, flag): getattr(args, flag) for flag in _CONFIG_FLAGS
                 if getattr(args, flag) is not None}
    return TrainConfig.defaults(mode, n_dims, args.bits, hidden=hidden, **overrides)


def _effective_config(cfg, args):
    settings = {flag: getattr(cfg, _FIELD_OF_FLAG.get(flag, flag)) for flag in _CONFIG_FLAGS}
    return {**settings, "mode": cfg.mode, "bits": cfg.code_len, "layer_sizes": list(cfg.layer_sizes),
            "data": args.data, "labels": args.labels, "format": args.format}


def _derived_path(out, suffix):
    stem = out[: -len(".dhnn")] if out.endswith(".dhnn") else out
    return stem + suffix


def cmd_train(args):
    out = args.out
    if not out:
        raise ValueError("--out is required")
    dataset = _load_features(args)
    cfg = _train_config_from(args, dataset.n_dims)
    t0 = time.perf_counter()
    if cfg.mode == UNSUPERVISED:
        result = train_unsupervised(dataset.x, cfg)
    else:
        if dataset.labels is None:
            raise ValueError("supervised training needs labels (--labels, or 'last' for CSV)")
        result = train_supervised(dataset.x, dataset.labels, cfg)
    elapsed = time.perf_counter() - t0

    codes_path = args.codes_out or _derived_path(out, ".dhcb")
    report_path = args.report or _derived_path(out, ".json")
    dataio.save_model(result.params, out)
    dataio.save_codes(result.codes, codes_path)
    report = {
        "command": "train",
        "config": _effective_config(cfg, args),
        "status": result.status,
        "loss_trace": result.loss_trace,
        "b_step_losses": result.b_step_losses,
        "outputs": {"model": out, "codes": codes_path},
        "timing": {"train_seconds": elapsed},
    }
    if result.subset_indices is not None:
        report["subset_indices"] = [int(i) for i in result.subset_indices]
    with open(report_path, "w", encoding="utf-8") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")
    print("trained %s model: %d bits, %d samples, final loss %.6g (%s)"
          % (cfg.mode, cfg.code_len, dataset.n_samples, result.loss_trace[-1], result.status))
    print("wrote %s, %s, %s" % (out, codes_path, report_path))
    return 0


def cmd_encode(args):
    params = dataio.load_model(args.model)
    dataset = _load_features(args)
    if dataset.n_dims != params.layer_sizes[0]:
        raise ValueError("data is %d-dimensional but the model expects %d"
                         % (dataset.n_dims, params.layer_sizes[0]))
    codes = encode_codes(params, dataset.x)
    dataio.save_codes(codes, args.out)
    print("encoded %d samples at %d bits -> %s" % (codes.count, codes.code_len, args.out))
    return 0


def cmd_gt(args):
    db = _load_features(args)
    queries = _load_features(args, "queries", "query_labels")
    if args.method == "euclid":
        gt = euclidean_knn_gt(db.x, queries.x, args.gt_k)
    else:
        if db.labels is None or queries.labels is None:
            raise ValueError("label ground truth needs labels on both sides "
                             "(--labels / --query-labels, or 'last' for CSV)")
        gt = label_gt(db.labels, queries.labels)
    dataio.save_gt(gt, args.out)
    print("wrote ground truth for %d queries -> %s" % (len(gt), args.out))
    return 0


def cmd_eval(args):
    db = dataio.load_codes(args.db)
    queries = dataio.load_codes(args.queries)
    gt = dataio.load_gt(args.gt)
    radii = args.radius if args.radius else [2, 3, 4]
    report = evaluate(db, queries, gt, radii=radii, top_k=args.topk)
    print("queries: %d   database: %d   bits: %d" % (queries.count, db.count, db.code_len))
    print("mAP%s: %.4f" % ("" if args.topk is None else "@%d" % args.topk, report.mean_ap))
    for r in report.radii:
        print("precision@r=%d: %.4f" % (r, report.precision_at[r]))
    if args.report:
        payload = {
            "command": "eval",
            "config": {"db": args.db, "queries": args.queries, "gt": args.gt,
                       "radii": report.radii, "topk": args.topk},
            "map": report.mean_ap,
            "precision_at_radius": {str(r): report.precision_at[r] for r in report.radii},
            "per_query_ap": report.per_query_ap,
        }
        with open(args.report, "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=2, sort_keys=True)
            f.write("\n")
        print("wrote %s" % args.report)
    return 0


def _build_parser(train_defaults=None):
    """The argument parser; train_defaults (config-file values) replace the train flags' defaults."""
    parser = argparse.ArgumentParser(prog="hashlearn",
                                     description="deep-network binary hashing and retrieval evaluation")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a hashing network")
    p_train.add_argument("--config", help="key = value config file")
    p_train.add_argument("--mode", choices=sorted(_MODE_ALIASES), default="unsup")
    p_train.add_argument("--data", default=None)
    p_train.add_argument("--labels", default=None,
                         help="label file for idx data, or 'last' for a CSV label column")
    p_train.add_argument("--format", choices=("auto", "idx", "fvecs", "bvecs", "csv"), default="auto")
    p_train.add_argument("--bits", type=int, default=16)
    p_train.add_argument("--layers", default=None, help="comma-separated hidden widths, e.g. 90,30")
    for i in (1, 2, 3, 4):
        p_train.add_argument("--lambda%d" % i, type=float, default=None)
    p_train.add_argument("--max-iter", dest="max_iter", type=int, default=None)
    p_train.add_argument("--ns", type=int, default=None, help="samples per class (supervised)")
    p_train.add_argument("--seed", type=int, default=None)
    p_train.add_argument("--center", action="store_const", const=True, default=None,
                         help="mean-center inputs before training")
    p_train.add_argument("--itq-iters", dest="itq_iters", type=int, default=None)
    p_train.add_argument("--out", default=None, help="model output path")
    p_train.add_argument("--codes-out", dest="codes_out", default=None)
    p_train.add_argument("--report", default=None, help="JSON run report path")
    p_train.set_defaults(run=cmd_train, **(train_defaults or {}))

    p_encode = sub.add_parser("encode", help="encode data with a trained model")
    p_encode.add_argument("--model", required=True)
    p_encode.add_argument("--data", required=True)
    p_encode.add_argument("--labels", default=None)
    p_encode.add_argument("--format", choices=("auto", "idx", "fvecs", "bvecs", "csv"), default="auto")
    p_encode.add_argument("--out", required=True)
    p_encode.set_defaults(run=cmd_encode)

    p_gt = sub.add_parser("gt", help="build retrieval ground truth")
    p_gt.add_argument("--method", choices=("euclid", "label"), default="euclid")
    p_gt.add_argument("--data", required=True, help="database features")
    p_gt.add_argument("--queries", required=True, help="query features")
    p_gt.add_argument("--labels", default=None)
    p_gt.add_argument("--query-labels", dest="query_labels", default=None)
    p_gt.add_argument("--format", choices=("auto", "idx", "fvecs", "bvecs", "csv"), default="auto")
    p_gt.add_argument("--gt-k", dest="gt_k", type=int, default=50)
    p_gt.add_argument("--out", required=True)
    p_gt.set_defaults(run=cmd_gt)

    p_eval = sub.add_parser("eval", help="evaluate codes against ground truth")
    p_eval.add_argument("--db", required=True, help="database codes file")
    p_eval.add_argument("--queries", required=True, help="query codes file")
    p_eval.add_argument("--gt", required=True, help="ground-truth file")
    p_eval.add_argument("--radius", type=int, action="append", default=None,
                        help="Hamming radius for precision (repeatable; default 2 3 4)")
    p_eval.add_argument("--topk", type=int, default=None, help="cap the ranked list for mAP")
    p_eval.add_argument("--report", default=None, help="JSON report path")
    p_eval.set_defaults(run=cmd_eval)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if getattr(args, "config", None):
            # re-parse with the file's values as defaults: flags still win, and
            # argparse converts each value by its flag's own type
            known = set(vars(args)) - {"command", "config", "run"}
            args = _build_parser(_parse_config_file(args.config, known)).parse_args(argv)
        return args.run(args)
    except (ValueError, OSError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
