#include "stream/deps.h"

#include <algorithm>

namespace sps::stream {

namespace {

/** Append the distinct values of `v`, ascending, as the next list of
 *  `out`, and empty `v`. */
void
closeAsSet(FlatLists &out, std::vector<int> &v)
{
    std::sort(v.begin(), v.end());
    out.items.insert(out.items.end(), v.begin(),
                     std::unique(v.begin(), v.end()));
    out.close();
    v.clear();
}

} // namespace

ProgramDeps
analyzeDeps(const StreamProgram &prog)
{
    const auto &ops = prog.ops();
    const size_t n_streams = prog.streams().size();
    ProgramDeps out;
    for (FlatLists *l : {&out.deps, &out.lastUseOf, &out.reads, &out.writes})
        l->offsets.reserve(ops.size() + 1);

    for (const StreamOp &op : ops) {
        switch (op.kind) {
          case OpKind::Load:
            out.writes.items.push_back(op.stream);
            break;
          case OpKind::Store:
            out.reads.items.push_back(op.stream);
            break;
          case OpKind::Kernel: {
            const std::span<const int> args = prog.args(op);
            for (size_t p = 0; p < args.size(); ++p) {
                if (op.k->streams[p].dir == kernel::PortDir::In)
                    out.reads.items.push_back(args[p]);
                else
                    out.writes.items.push_back(args[p]);
            }
            break;
          }
        }
        out.reads.close();
        out.writes.close();
    }

    // The readers of each stream since its last write: one list per
    // stream, linked through a single pool (newest first) and emptied
    // by resetting its head.
    struct Reader
    {
        int op;
        int next;
    };
    std::vector<Reader> readers;
    readers.reserve(out.reads.items.size());
    std::vector<int> readers_head(n_streams, -1);
    std::vector<int> last_writer(n_streams, -1);
    std::vector<int> last_use(n_streams, -1);
    std::vector<int> d;
    for (size_t i = 0; i < ops.size(); ++i) {
        const int op = static_cast<int>(i);
        for (int s : out.reads[i]) {
            const auto su = static_cast<size_t>(s);
            if (last_writer[su] >= 0)
                d.push_back(last_writer[su]);
            readers.push_back(Reader{op, readers_head[su]});
            readers_head[su] = static_cast<int>(readers.size()) - 1;
            last_use[su] = op;
        }
        for (int s : out.writes[i]) {
            const auto su = static_cast<size_t>(s);
            if (last_writer[su] >= 0)
                d.push_back(last_writer[su]);
            for (int r = readers_head[su]; r >= 0;
                 r = readers[static_cast<size_t>(r)].next)
                d.push_back(readers[static_cast<size_t>(r)].op);
            last_writer[su] = op;
            readers_head[su] = -1;
            last_use[su] = op;
        }
        std::erase(d, op);
        closeAsSet(out.deps, d);
    }

    // An op is the last use of each stream it touches that no later op
    // touches.
    for (size_t i = 0; i < ops.size(); ++i) {
        for (std::span<const int> l : {out.reads[i], out.writes[i]})
            for (int s : l)
                if (last_use[static_cast<size_t>(s)] == static_cast<int>(i))
                    d.push_back(s);
        closeAsSet(out.lastUseOf, d);
    }
    return out;
}

} // namespace sps::stream
