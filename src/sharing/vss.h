// Verifiable Secret Sharing — Π_VSS (Protocols 7.1/7.2, Theorem 7.3).
//
// The two-layer construction of §7: the outer dealer runs the Π_WSS state
// machine, but pairwise consistency is checked through one inner Π_WSS
// instance per party (each re-sharing the row it received), which lets
// parties outside the final clique reconstruct their rows even when the
// dealer is corrupt in a synchronous network — upgrading weak commitment to
// strong commitment. Every step after the exchange shifts by T'_WSS, and
// the instance is conditioned on a global set Z of ts - ta parties (§7):
// every public revelation in either layer stays inside Z, so the adversary
// never learns more than ts rows of any honest bivariate polynomial. A full
// VSS iterates over all C(n, ts-ta) subsets Z (done by the MPC layer).
//
// Outputs: each party's row polynomials f_i (one per batched secret); its
// degree-ts Shamir share of secret k is share(k) = f_i^k(0).
#pragma once

#include "sharing/wss.h"

namespace nampc {

class Vss : public Wss {
 public:
  Vss(Party& party, std::string key, PartyId dealer, Time nominal_start,
      int num_secrets, PartySet z, OutputFn on_output)
      : Wss(party, std::move(key), dealer, nominal_start,
            make_options(party, num_secrets, z), std::move(on_output)) {
    // Overrides the base Wss tag for attribution; the instance still counts
    // under both "wss" and "vss" in MetricsRegistry::kind_tags.
    span_kind("vss");
  }

 private:
  static WssOptions make_options(Party& party, int num_secrets, PartySet z) {
    WssOptions o;
    o.num_secrets = num_secrets;
    o.z = z;
    o.inner_check = true;
    o.check_extra = party.sim().timing().t_wss_z;
    return o;
  }
};

}  // namespace nampc
