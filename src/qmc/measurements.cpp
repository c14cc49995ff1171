#include "fsi/qmc/measurements.hpp"

#include <omp.h>

#include <algorithm>

#include "fsi/util/check.hpp"

namespace fsi::qmc {

Measurements::Measurements(index_t l, index_t dmax) : l_(l), dmax_(dmax) {
  FSI_CHECK(l > 0 && dmax > 0, "Measurements: need positive dimensions");
  spxx_.assign(static_cast<std::size_t>(l) * dmax, 0.0);
}

void Measurements::add_sample(double sign) {
  n_samples_ += 1.0;
  sign_sum_ += sign;
}

void Measurements::add_density(double up, double down) {
  den_up_ += up;
  den_dn_ += down;
}

void Measurements::add_double_occupancy(double v) { docc_ += v; }

void Measurements::add_kinetic_energy(double v) { kinetic_ += v; }

void Measurements::add_af_structure_factor(double v) { af_ += v; }

void Measurements::add_pair_susceptibility(double v) { pair_ += v; }

void Measurements::add_spxx(index_t tau, index_t d, double v) {
  FSI_ASSERT(tau >= 0 && tau < l_ && d >= 0 && d < dmax_);
  spxx_[static_cast<std::size_t>(tau) * dmax_ + d] += v;
}

void Measurements::merge(const Measurements& other) {
  FSI_CHECK(other.l_ == l_ && other.dmax_ == dmax_,
            "Measurements::merge: shape mismatch");
  n_samples_ += other.n_samples_;
  sign_sum_ += other.sign_sum_;
  den_up_ += other.den_up_;
  den_dn_ += other.den_dn_;
  docc_ += other.docc_;
  kinetic_ += other.kinetic_;
  af_ += other.af_;
  pair_ += other.pair_;
  for (std::size_t i = 0; i < spxx_.size(); ++i) spxx_[i] += other.spxx_[i];
}

namespace {
double safe_div(double num, double den) { return den == 0.0 ? 0.0 : num / den; }
}  // namespace

double Measurements::avg_sign() const { return safe_div(sign_sum_, n_samples_); }
double Measurements::density_up() const { return safe_div(den_up_, sign_sum_); }
double Measurements::density_down() const { return safe_div(den_dn_, sign_sum_); }
double Measurements::density() const { return density_up() + density_down(); }
double Measurements::double_occupancy() const { return safe_div(docc_, sign_sum_); }
double Measurements::kinetic_energy() const { return safe_div(kinetic_, sign_sum_); }
double Measurements::af_structure_factor() const { return safe_div(af_, sign_sum_); }
double Measurements::pair_susceptibility() const { return safe_div(pair_, sign_sum_); }
double Measurements::local_moment() const {
  return density_up() + density_down() - 2.0 * double_occupancy();
}

double Measurements::spxx(index_t tau, index_t d) const {
  FSI_CHECK(tau >= 0 && tau < l_ && d >= 0 && d < dmax_,
            "spxx: index out of range");
  return safe_div(spxx_[static_cast<std::size_t>(tau) * dmax_ + d], sign_sum_);
}

std::size_t Measurements::serialized_size(index_t l, index_t dmax) {
  return 8u + static_cast<std::size_t>(l) * static_cast<std::size_t>(dmax);
}

std::vector<double> Measurements::serialize() const {
  std::vector<double> buf;
  buf.reserve(serialized_size(l_, dmax_));
  buf.push_back(n_samples_);
  buf.push_back(sign_sum_);
  buf.push_back(den_up_);
  buf.push_back(den_dn_);
  buf.push_back(docc_);
  buf.push_back(kinetic_);
  buf.push_back(af_);
  buf.push_back(pair_);
  buf.insert(buf.end(), spxx_.begin(), spxx_.end());
  return buf;
}

Measurements Measurements::deserialize(index_t l, index_t dmax,
                                       const std::vector<double>& buf) {
  FSI_CHECK(buf.size() == serialized_size(l, dmax),
            "Measurements::deserialize: buffer size mismatch");
  Measurements m(l, dmax);
  m.n_samples_ = buf[0];
  m.sign_sum_ = buf[1];
  m.den_up_ = buf[2];
  m.den_dn_ = buf[3];
  m.docc_ = buf[4];
  m.kinetic_ = buf[5];
  m.af_ = buf[6];
  m.pair_ = buf[7];
  std::copy(buf.begin() + 8, buf.end(), m.spxx_.begin());
  return m;
}

void accumulate_equal_time(const Lattice& lat,
                           const pcyclic::SelectedInversion& g_up,
                           const pcyclic::SelectedInversion& g_dn, double t_hop,
                           double sign, bool parallel, Measurements& out) {
  const index_t n = lat.num_sites();
  FSI_CHECK(g_up.block_size() == n && g_dn.block_size() == n,
            "accumulate_equal_time: block size must equal the site count");
  const auto& keys = g_up.keys();
  FSI_CHECK(!keys.empty(), "accumulate_equal_time: no diagonal blocks");

  double den_up = 0.0, den_dn = 0.0, docc = 0.0, kin = 0.0, af = 0.0;
  const index_t nk = static_cast<index_t>(keys.size());

#pragma omp parallel for reduction(+ : den_up, den_dn, docc, kin, af) \
    schedule(static) if (parallel)
  for (index_t ki = 0; ki < nk; ++ki) {
    const auto [k, l] = keys[static_cast<std::size_t>(ki)];
    FSI_ASSERT(k == l);
    const dense::Matrix& gu = g_up.at(k, l);
    const dense::Matrix& gd = g_dn.at(k, l);
    for (index_t i = 0; i < n; ++i) {
      const double nu_i = 1.0 - gu(i, i);
      const double nd_i = 1.0 - gd(i, i);
      den_up += nu_i;
      den_dn += nd_i;
      docc += nu_i * nd_i;
      // <c_i^+ c_j> = -G(j, i) for i != j; kinetic sums both spins over
      // the directed neighbour pairs.
      for (index_t j : lat.neighbors(i)) kin += t_hop * (gu(j, i) + gd(j, i));
      // Staggered spin-spin correlation, Wick-decomposed per spin species:
      // <m_i m_j> = (n_i^u - n_i^d)(n_j^u - n_j^d)
      //           + sum_s (delta_ij - G^s(j,i)) G^s(i,j).
      const double m_i = nu_i - nd_i;
      for (index_t j = 0; j < n; ++j) {
        const double m_j = (1.0 - gu(j, j)) - (1.0 - gd(j, j));
        const double delta = (i == j) ? 1.0 : 0.0;
        const double wick = (delta - gu(j, i)) * gu(i, j) +
                            (delta - gd(j, i)) * gd(i, j);
        af += lat.parity(i) * lat.parity(j) * (m_i * m_j + wick);
      }
    }
  }

  // Average over the diagonal blocks used and the sites (per-site values).
  const double norm = static_cast<double>(nk) * static_cast<double>(n);
  out.add_density(sign * den_up / norm, sign * den_dn / norm);
  out.add_double_occupancy(sign * docc / norm);
  out.add_kinetic_energy(sign * kin / norm);
  // S_AF is intensive per site but sums over all pairs: normalise by N and
  // the number of diagonal blocks used.
  out.add_af_structure_factor(sign * af / norm);
}

void accumulate_pair_susceptibility(const Lattice& lat,
                                    const pcyclic::SelectedInversion& rows_up,
                                    const pcyclic::SelectedInversion& rows_dn,
                                    double dtau, double sign,
                                    Measurements& out) {
  const pcyclic::Selection& sel = rows_up.selection();
  const index_t l = sel.l_total;
  FSI_CHECK(rows_up.pattern() == pcyclic::Pattern::Rows &&
                rows_dn.pattern() == pcyclic::Pattern::Rows,
            "accumulate_pair_susceptibility: needs Rows patterns");
  FSI_CHECK(sel.q == rows_dn.selection().q,
            "accumulate_pair_susceptibility: selections must match");
  const auto selected = sel.indices();
  std::vector<double> sums(selected.size() * static_cast<std::size_t>(l));
  for (std::size_t ks = 0; ks < selected.size(); ++ks)
    for (index_t ell = 0; ell < l; ++ell)
      sums[ks * static_cast<std::size_t>(l) + static_cast<std::size_t>(ell)] =
          pair_block(rows_up.at(selected[ks], ell),
                     rows_dn.at(selected[ks], ell));
  reduce_pair_susceptibility(lat, sel, sums, dtau, sign, out);
}

double pair_block(dense::ConstMatrixView gu_kl, dense::ConstMatrixView gd_kl) {
  FSI_ASSERT(gu_kl.rows() == gd_kl.rows() && gu_kl.cols() == gd_kl.cols());
  // Four interleaved partial sums (row i feeds s[i % 4]) break the serial
  // add chain; the order is fixed, so every caller gets the same bits.
  const index_t rows = gu_kl.rows();
  double s[4] = {0.0, 0.0, 0.0, 0.0};
  for (index_t j = 0; j < gu_kl.cols(); ++j) {
    const double* u = &gu_kl(0, j);
    const double* d = &gd_kl(0, j);
    index_t i = 0;
    for (; i + 4 <= rows; i += 4) {
      s[0] += u[i] * d[i];
      s[1] += u[i + 1] * d[i + 1];
      s[2] += u[i + 2] * d[i + 2];
      s[3] += u[i + 3] * d[i + 3];
    }
    for (; i < rows; ++i) s[i % 4] += u[i] * d[i];
  }
  return (s[0] + s[1]) + (s[2] + s[3]);
}

void reduce_pair_susceptibility(const Lattice& lat,
                                const pcyclic::Selection& sel,
                                const std::vector<double>& sums, double dtau,
                                double sign, Measurements& out) {
  const std::size_t b = static_cast<std::size_t>(sel.b());
  FSI_CHECK(sums.size() == b * static_cast<std::size_t>(sel.l_total),
            "reduce_pair_susceptibility: sums must hold b x L block sums");
  double total = 0.0;
  for (const double s : sums) total += s;  // ks-outer, l-inner by layout
  out.add_pair_susceptibility(sign * dtau * total /
                              (static_cast<double>(lat.num_sites()) *
                               static_cast<double>(b)));
}

void spxx_block(const Lattice& lat, dense::ConstMatrixView gu_kl,
                dense::ConstMatrixView gd_lk, dense::ConstMatrixView gd_kl,
                dense::ConstMatrixView gu_lk, double* buf) {
  const index_t n = lat.num_sites();
  FSI_ASSERT(gu_kl.rows() == n && gu_kl.cols() == n && gd_lk.rows() == n &&
             gd_lk.cols() == n && gd_kl.rows() == n && gd_kl.cols() == n &&
             gu_lk.rows() == n && gu_lk.cols() == n);
  std::fill(buf, buf + lat.num_distance_classes(), 0.0);
  const index_t* cls = lat.distance_class_table().data();
  for (index_t j = 0; j < n; ++j) {
    const index_t* cls_j = cls + j * n;
    for (index_t i = 0; i < n; ++i) {
      const double v = gu_kl(i, j) * gd_lk(j, i) + gd_kl(i, j) * gu_lk(j, i);
      buf[cls_j[i]] += v;
    }
  }
}

void reduce_spxx(const Lattice& lat, const pcyclic::Selection& sel,
                 const std::vector<double>& sums, double sign,
                 Measurements& out) {
  const index_t l = sel.l_total;
  const index_t dmax = lat.num_distance_classes();
  const auto selected = sel.indices();
  FSI_CHECK(sums.size() == selected.size() * static_cast<std::size_t>(l) *
                               static_cast<std::size_t>(dmax),
            "reduce_spxx: sums must hold b x L x dmax class sums");
  const double c_tau = static_cast<double>(selected.size());  // C(tau) = b
  const auto& class_sizes = lat.distance_class_sizes();

  // Slice-major, selected index outer: one fixed summation order whatever
  // order the sums were produced in.  The local -> total -> out chain is the
  // per-thread-accumulator merge of the paper's Sec. III-B, kept so every
  // caller rounds the same way.
  Measurements local(l, dmax);
  for (std::size_t ks = 0; ks < selected.size(); ++ks) {
    const index_t k = selected[ks];
    for (index_t tau = 0; tau < l; ++tau) {
      const index_t ell = ((k - tau) % l + l) % l;
      const double* buf =
          sums.data() + (ks * static_cast<std::size_t>(l) +
                         static_cast<std::size_t>(ell)) *
                            static_cast<std::size_t>(dmax);
      for (index_t d = 0; d < dmax; ++d) {
        const double denom =
            2.0 * c_tau *
            static_cast<double>(class_sizes[static_cast<std::size_t>(d)]);
        local.add_spxx(tau, d, sign * buf[d] / denom);
      }
    }
  }
  Measurements total(l, dmax);
  total.merge(local);
  out.merge(total);
}

void accumulate_spxx(const Lattice& lat,
                     const pcyclic::SelectedInversion& rows_up,
                     const pcyclic::SelectedInversion& cols_up,
                     const pcyclic::SelectedInversion& rows_dn,
                     const pcyclic::SelectedInversion& cols_dn, double sign,
                     Measurements& out) {
  const pcyclic::Selection& sel = rows_up.selection();
  const index_t l = sel.l_total;
  const index_t dmax = lat.num_distance_classes();
  FSI_CHECK(rows_up.pattern() == pcyclic::Pattern::Rows &&
                rows_dn.pattern() == pcyclic::Pattern::Rows,
            "accumulate_spxx: rows_* must be Rows patterns");
  FSI_CHECK(cols_up.pattern() == pcyclic::Pattern::Columns &&
                cols_dn.pattern() == pcyclic::Pattern::Columns,
            "accumulate_spxx: cols_* must be Columns patterns");
  FSI_CHECK(sel.q == cols_up.selection().q && sel.q == rows_dn.selection().q &&
                sel.q == cols_dn.selection().q,
            "accumulate_spxx: all patterns must share one Selection");

  const auto selected = sel.indices();
  std::vector<double> sums(selected.size() * static_cast<std::size_t>(l) *
                           static_cast<std::size_t>(dmax));
  for (std::size_t ks = 0; ks < selected.size(); ++ks) {
    for (index_t ell = 0; ell < l; ++ell) {
      const index_t k = selected[ks];
      spxx_block(lat, rows_up.at(k, ell), cols_dn.at(ell, k),
                 rows_dn.at(k, ell), cols_up.at(ell, k),
                 sums.data() + (ks * static_cast<std::size_t>(l) +
                                static_cast<std::size_t>(ell)) *
                                   static_cast<std::size_t>(dmax));
    }
  }
  reduce_spxx(lat, sel, sums, sign, out);
}

}  // namespace fsi::qmc
