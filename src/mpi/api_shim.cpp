// Implementations behind the ApiTable function-pointer shim (paper Fig. 4).
// Each api_* free function is the "runtime side" of one slot; the table is
// packed once per Runtime, and privatized program code calls exclusively
// through it.

#include <cstring>
#include <vector>

#include "mpi/api_shim.hpp"
#include "mpi/runtime.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace apv::mpi {

using util::ErrorCode;
using util::require;

namespace {

Runtime& rt(Env* e) { return e->runtime(); }
RankMpi& rm(Env* e) { return e->state(); }

// Every entry that takes an element count refuses a negative one here.
int checked_count(int count) {
  require(count >= 0, ErrorCode::InvalidArgument, "negative count");
  return count;
}

std::size_t nbytes(int count, Datatype dt) {
  return static_cast<std::size_t>(checked_count(count)) * datatype_size(dt);
}

// Every buffer the calling rank reads or writes is refused here when it is
// null but has bytes to carry; returns those bytes.
std::size_t checked_buffer(const void* buf, std::size_t bytes) {
  require(buf != nullptr || bytes == 0, ErrorCode::InvalidArgument,
          "null buffer");
  return bytes;
}

// A vector collective's count and displacement arrays, which its root alone
// reads, are refused here unless both are non-null with every one of their
// `n` entries >= 0. Returns the elements the counts add up to.
std::size_t checked_vector(const int* counts, const int* displs, int n) {
  require(counts != nullptr && displs != nullptr, ErrorCode::InvalidArgument,
          "null count or displacement array");
  std::size_t total = 0;
  for (int i = 0; i < n; ++i) {
    total += static_cast<std::size_t>(checked_count(counts[i]));
    require(displs[i] >= 0, ErrorCode::InvalidArgument,
            "negative displacement");
  }
  return total;
}

// Every rooted collective refuses a root outside its communicator here.
int checked_root(Env* e, int root, CommId comm) {
  require(root >= 0 && root < rt(e).comm_info(comm).size(),
          ErrorCode::InvalidArgument, "root out of range");
  return root;
}

// User traffic keeps below the internal tag space, where collectives and
// runtime control messages live: a user receive there could take them.
bool user_tag(int tag) { return tag >= 0 && tag <= kMaxUserTag; }

void require_recv_tag(int tag) {
  require(tag == kAnyTag || user_tag(tag), ErrorCode::InvalidArgument,
          "user tag out of range");
}

int api_comm_rank(Env* e, CommId comm) {
  return rt(e).comm_info(comm).local_of(rm(e).world_rank);
}

int api_comm_size(Env* e, CommId comm) {
  return rt(e).comm_info(comm).size();
}

void api_send(Env* e, const void* buf, int count, Datatype dt, int dst,
              int tag, CommId comm) {
  require(user_tag(tag), ErrorCode::InvalidArgument, "user tag out of range");
  rt(e).do_send(rm(e), buf, checked_buffer(buf, nbytes(count, dt)), dst, tag,
                comm, static_cast<std::uint32_t>(datatype_size(dt)));
}

Status api_recv(Env* e, void* buf, int count, Datatype dt, int src, int tag,
                CommId comm) {
  require_recv_tag(tag);
  return rt(e).do_recv(rm(e), buf, checked_buffer(buf, nbytes(count, dt)),
                       src, tag, comm,
                       static_cast<std::uint32_t>(datatype_size(dt)));
}

Request api_isend(Env* e, const void* buf, int count, Datatype dt, int dst,
                  int tag, CommId comm) {
  // Eager transport: the payload is copied out immediately, so the send is
  // complete the moment it is posted (like a buffered MPI_Ibsend).
  api_send(e, buf, count, dt, dst, tag, comm);
  RankMpi& r = rm(e);
  const Request req = r.alloc_request();
  r.requests[static_cast<std::size_t>(req)].complete = true;
  return req;
}

Request api_irecv(Env* e, void* buf, int count, Datatype dt, int src, int tag,
                  CommId comm) {
  require_recv_tag(tag);
  return rt(e).do_irecv(rm(e), buf, checked_buffer(buf, nbytes(count, dt)),
                        src, tag, comm,
                        static_cast<std::uint32_t>(datatype_size(dt)));
}

Status api_wait(Env* e, Request* req) { return rt(e).do_wait(rm(e), *req); }

void api_waitall(Env* e, int n, Request* reqs) {
  checked_count(n);
  for (int i = 0; i < n; ++i) {
    if (reqs[i] != kRequestNull) rt(e).do_wait(rm(e), reqs[i]);
  }
}

int api_waitany(Env* e, int n, Request* reqs, Status* status) {
  RankMpi& r = rm(e);
  checked_count(n);
  for (;;) {
    bool any_active = false;
    for (int i = 0; i < n; ++i) {
      if (reqs[i] == kRequestNull) continue;
      any_active = true;
      if (rt(e).do_test(r, reqs[i], status)) return i;
    }
    require(any_active, ErrorCode::InvalidArgument,
            "waitany with no active requests");
    rt(e).block_current(r);
  }
}

bool api_test(Env* e, Request* req, Status* status) {
  return rt(e).do_test(rm(e), *req, status);
}

bool api_iprobe(Env* e, int src, int tag, CommId comm, Status* status) {
  require_recv_tag(tag);
  return rt(e).do_iprobe(rm(e), src, tag, comm, status);
}

Status api_probe(Env* e, int src, int tag, CommId comm) {
  require_recv_tag(tag);
  RankMpi& r = rm(e);
  Status status;
  while (!rt(e).do_iprobe(r, src, tag, comm, &status)) rt(e).block_current(r);
  return status;
}

void api_sendrecv(Env* e, const void* sbuf, int scount, Datatype sdt, int dst,
                  int stag, void* rbuf, int rcount, Datatype rdt, int src,
                  int rtag, CommId comm, Status* status) {
  checked_buffer(sbuf, nbytes(scount, sdt));  // before the receive is posted
  Request rreq = api_irecv(e, rbuf, rcount, rdt, src, rtag, comm);
  api_send(e, sbuf, scount, sdt, dst, stag, comm);
  const Status st = rt(e).do_wait(rm(e), rreq);
  if (status != nullptr) *status = st;
}

void api_barrier(Env* e, CommId comm) { rt(e).do_barrier(rm(e), comm); }

void api_bcast(Env* e, void* buf, int count, Datatype dt, int root,
               CommId comm) {
  rt(e).do_bcast(rm(e), buf, checked_buffer(buf, nbytes(count, dt)),
                 checked_root(e, root, comm), comm);
}

void api_reduce(Env* e, const void* sbuf, void* rbuf, int count, Datatype dt,
                Op op, int root, CommId comm) {
  const std::size_t bytes = checked_buffer(sbuf, nbytes(count, dt));
  if (api_comm_rank(e, comm) == checked_root(e, root, comm))
    checked_buffer(rbuf, bytes);
  rt(e).do_reduce(rm(e), sbuf, rbuf, count, dt, op, root, comm);
}

void api_allreduce(Env* e, const void* sbuf, void* rbuf, int count,
                   Datatype dt, Op op, CommId comm) {
  checked_buffer(rbuf, checked_buffer(sbuf, nbytes(count, dt)));
  rt(e).do_allreduce(rm(e), sbuf, rbuf, count, dt, op, comm);
}

void api_scan(Env* e, const void* sbuf, void* rbuf, int count, Datatype dt,
              Op op, CommId comm) {
  checked_buffer(rbuf, checked_buffer(sbuf, nbytes(count, dt)));
  rt(e).do_scan(rm(e), sbuf, rbuf, count, dt, op, comm);
}

void api_gather(Env* e, const void* sbuf, int scount, Datatype sdt,
                void* rbuf, int rcount, Datatype rdt, int root, CommId comm) {
  checked_buffer(sbuf, nbytes(scount, sdt));
  const std::size_t rbytes = nbytes(rcount, rdt);
  if (api_comm_rank(e, comm) == checked_root(e, root, comm))
    checked_buffer(rbuf, rbytes * api_comm_size(e, comm));
  rt(e).do_gather(rm(e), sbuf, scount, sdt, rbuf, rcount, rdt, root, comm);
}

void api_gatherv(Env* e, const void* sbuf, int scount, Datatype sdt,
                 void* rbuf, const int* rcounts, const int* displs,
                 Datatype rdt, int root, CommId comm) {
  checked_buffer(sbuf, nbytes(scount, sdt));
  if (api_comm_rank(e, comm) == checked_root(e, root, comm)) {
    checked_buffer(rbuf, checked_vector(rcounts, displs,
                                        api_comm_size(e, comm)) *
                             datatype_size(rdt));
  }
  rt(e).do_gatherv(rm(e), sbuf, scount, sdt, rbuf, rcounts, displs, rdt, root,
                   comm);
}

void api_scatter(Env* e, const void* sbuf, int scount, Datatype sdt,
                 void* rbuf, int rcount, Datatype rdt, int root,
                 CommId comm) {
  const std::size_t sbytes = nbytes(scount, sdt);
  if (api_comm_rank(e, comm) == checked_root(e, root, comm))
    checked_buffer(sbuf, sbytes * api_comm_size(e, comm));
  checked_buffer(rbuf, nbytes(rcount, rdt));
  rt(e).do_scatter(rm(e), sbuf, scount, sdt, rbuf, rcount, rdt, root, comm);
}

void api_scatterv(Env* e, const void* sbuf, const int* scounts,
                  const int* displs, Datatype sdt, void* rbuf, int rcount,
                  Datatype rdt, int root, CommId comm) {
  if (api_comm_rank(e, comm) == checked_root(e, root, comm)) {
    checked_buffer(sbuf, checked_vector(scounts, displs,
                                        api_comm_size(e, comm)) *
                             datatype_size(sdt));
  }
  checked_buffer(rbuf, nbytes(rcount, rdt));
  rt(e).do_scatterv(rm(e), sbuf, scounts, displs, sdt, rbuf, rcount, rdt,
                    root, comm);
}

void api_allgather(Env* e, const void* sbuf, int scount, Datatype sdt,
                   void* rbuf, int rcount, Datatype rdt, CommId comm) {
  checked_buffer(sbuf, nbytes(scount, sdt));
  checked_buffer(rbuf, nbytes(rcount, rdt) * api_comm_size(e, comm));
  rt(e).do_allgather(rm(e), sbuf, scount, sdt, rbuf, rcount, rdt, comm);
}

void api_alltoall(Env* e, const void* sbuf, int scount, Datatype sdt,
                  void* rbuf, int rcount, Datatype rdt, CommId comm) {
  const int n = api_comm_size(e, comm);
  checked_buffer(sbuf, nbytes(scount, sdt) * n);
  checked_buffer(rbuf, nbytes(rcount, rdt) * n);
  rt(e).do_alltoall(rm(e), sbuf, scount, sdt, rbuf, rcount, rdt, comm);
}

CommId api_comm_dup(Env* e, CommId comm) {
  RankMpi& r = rm(e);
  const std::uint32_t seq = r.comm_seq_for(comm)++;
  // Same membership, new context id; no communication needed because every
  // member derives the identical (parent, seq, color) key.
  return rt(e).comms().intern(comm, seq, /*color=*/-1,
                              rt(e).comm_info(comm).world_ranks());
}

CommId api_comm_split(Env* e, CommId comm, int color, int key) {
  return rt(e).do_comm_split(rm(e), comm, color, key);
}

void api_comm_free(Env* e, CommId comm) { rt(e).do_comm_free(rm(e), comm); }

Op api_op_create_named(Env* e, const char* image_fn, bool commutative) {
  return rt(e).do_op_create_named(rm(e), image_fn, commutative);
}

Op api_op_create(Env* e, void* fn_addr, bool commutative) {
  return rt(e).do_op_create(rm(e), fn_addr, commutative);
}

double api_wtime(Env* e) {
  (void)e;
  return util::wall_time();
}

double api_wtick(Env* e) {
  (void)e;
  return util::wall_tick();
}

void api_yield(Env* e) { rt(e).do_yield(rm(e)); }

void api_migrate_to(Env* e, int pe) { rt(e).do_migrate_to(rm(e), pe); }

void api_load_balance(Env* e, const char* strategy) {
  rt(e).do_load_balance(rm(e), strategy);
}

int api_checkpoint(Env* e) { return rt(e).do_checkpoint(rm(e)); }

int api_checkpoint_all(Env* e) { return rt(e).do_checkpoint_all(rm(e)); }

int api_my_pe(Env* e) { return rt(e).pe_of(rm(e)); }

int api_num_pes(Env* e) { return rt(e).cluster().num_pes(); }

int api_num_live_pes(Env* e) { return rt(e).cluster().num_live_pes(); }

int api_my_node(Env* e) {
  return rt(e).cluster().node_of(rt(e).pe_of(rm(e)));
}

void api_add_load(Env* e, double seconds) {
  rm(e).add_busy_time(seconds);
}

void api_compute(Env* e, double seconds) {
  rt(e).do_compute(rm(e), seconds);
}

void* api_rank_malloc(Env* e, std::size_t size) {
  return rm(e).rc->heap->alloc(size, 16);
}

void api_rank_free(Env* e, void* p) { rm(e).rc->heap->free(p); }

}  // namespace

void pack_api_table(ApiTable& table) {
#define AMPI_FUNC(ret, name, params) table.name = &api_##name;
#include "mpi/ampi_functions.def"
#undef AMPI_FUNC
}

core::VarAccess Env::bind_global(const std::string& name) const {
  return rt_->bind_global(*rm_, name);
}

std::size_t Env::array_len(const std::string& name, std::size_t elem) const {
  const img::ProgramImage& image = rt_->image();
  return image.var(image.var_id(name)).size / elem;
}

}  // namespace apv::mpi
