"""The far-field pattern is the source's Fourier data at frequency kappa.

Evaluating the field at ever larger radii and stripping the outgoing-wave
prefactor converges (like 1/|x|) to the restricted Fourier transform of the
source, in both dimensions.
"""

import numpy as np

from biharwave import WaveContext, eval_field, far_field, gaussian_source

for dim in (2, 3):
    ctx = WaveContext.with_root_wavenumber(dim, radius=1.0, root_index=1)
    center = [0.25, 0.0] if dim == 2 else [0.2, 0.1, 0.15]
    src = gaussian_source(ctx, center=center, sigma=0.1, support_radius=0.9)

    xhat = np.zeros(dim)
    xhat[0] = 1.0
    pattern = far_field(ctx, src, xhat[None, :])[0]
    # the far-field factor mu_d of fields.far_field's asymptote
    mu = np.sqrt(2.0 / ctx.kappa) * np.exp(1j * np.pi / 4.0) if dim == 2 else 1.0

    print(f"{dim}D: |far-field pattern| = {abs(pattern):.8f} at direction {xhat}")
    print(f"{'radius':>10s} {'rescaled |u|':>16s} {'rel. error':>12s}")
    for factor in (125.0, 250.0, 500.0, 1000.0, 2000.0):
        x = factor * ctx.radius * xhat
        rx = np.linalg.norm(x)
        u = eval_field(ctx, src, x, method="quadrature").u
        rescaled = abs(u / mu) * 8.0 * ctx.kappa**2 * (np.pi * rx) ** ((dim - 1) / 2.0)
        print(f"{factor:10.0f} {rescaled:16.8f} {abs(rescaled - abs(pattern)) / abs(pattern):12.2e}")
    print()
