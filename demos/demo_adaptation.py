"""Unsupervised adaptation from a labeled source domain to an unlabeled
target domain: ``poseadapt.protocols.pose_protocol`` on seed 0. Pretrains
on labeled source images, then continues from that model with the same
budget and seed three times: supervised loss only (baseline), plus
uncertainty shaping on backgrounds and target images (uncert), plus
flip-consistency pseudo-labels (full). Compares target-domain MPJPE."""

from poseadapt.protocols import VARIANTS, pose_protocol


def report(res):
    """Print the target-eval errors of a ``pose_protocol`` result."""
    for name in ("pretrained", *VARIANTS):
        ev = res[name]
        print(f"{name:12s} target MPJPE {ev['mpjpe']:.4f} PA-MPJPE {ev['pa_mpjpe']:.4f}")
    print(f"full + fusion target MPJPE {res['full']['fused_mpjpe']:.4f}; "
          f"pseudo-labels selected: {res['selected']}")
    gain = res["baseline"]["mpjpe"] - res["full"]["mpjpe"]
    print(f"adaptation gain (baseline - full): {gain:+.4f} MPJPE")


def main():
    report(pose_protocol(0))


if __name__ == "__main__":
    main()
