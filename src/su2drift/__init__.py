"""Correlated SU(2) rotation-diffusion channel on qubit registers.

Modules
-------
halfint     the twice-j label check: every spin label j is passed as the
            integer 2j, so j = 1/2 is 1 and j = 1 is 2
wigner      Clebsch-Gordan, 6j, and recoupling coefficients
su2         group elements as (..., 4) unit-quaternion arrays, Haar and
            heat-kernel sampling, characters, irrep matrices
coupling    coupling paths, coupled bases from Clebsch-Gordan products,
            twirl and embed of block arrays, convention shifts
channel     the diffusion channel, its Choi matrix, and a Monte Carlo oracle
three_qubit closed-form three-qubit analysis, fidelities, capacities
numerics    entropies, the small-channel layer (Kraus set, complement and
            anti-degrading maps of a channel given by its Choi matrix),
            derivative-free optimization, quadrature
serialize   JSON import/export for density matrices
verify      named self-check suite
"""

from .wigner import clebsch_gordan, recoupling_u, wigner_6j
from .su2 import UnsupportedRegimeError, character, heat_kernel_density, wigner_d
from .coupling import (
    CouplingPath,
    coupled_basis_states,
    enumerate_paths,
    multiplicity,
)
from .channel import (
    ChannelSpec,
    MonteCarloResult,
    channel_apply,
    choi_matrix,
    monte_carlo_channel,
    r_coefficient,
)
from .three_qubit import (
    average_fidelity,
    coherent_info_threshold,
    coherent_information,
    fidelity,
    holevo_chi,
    maximize_coherent_info,
    maximize_holevo,
    qutrit_channel,
)
from .numerics import (
    OptimizerConfig,
    nelder_mead_maximize,
    sphere_quadrature,
    von_neumann_entropy,
)
from .serialize import load_density, save_density

__version__ = "0.1.0"
