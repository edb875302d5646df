//===- semantics/ValueGraph.h - Serializing the value heap ------*- C++ -*-===//
///
/// \file
/// Serialization of the (possibly cyclic) graph of run-time values and
/// environments reachable from a machine's roots — the heart of the
/// checkpoint format. Three identity problems make this more than a tree
/// walk, and each gets an explicit encoding:
///
///  - **Heap identity.** Letrec knots make the value graph cyclic, and
///    thunk updates make sharing observable; every heap object therefore
///    gets a 1-based object id on first discovery, references are written
///    as ids, and the reader rebuilds the graph in two phases (allocate
///    blanks, then fill), so cycles and sharing survive the round trip.
///    Writing only what the roots reach doubles as an arena-compacting
///    copy: garbage never enters the checkpoint.
///
///  - **Syntax identity.** Closures and thunks point into the program AST.
///    Those pointers are process-local, so they are encoded as pre-order
///    indices (ExprTable) into the program tree; the resuming process
///    re-parses the same program and maps indices back. Frame shapes are
///    encoded as resolver shape ids the same way (resolution is a pure
///    function of the tree, so ids agree across processes).
///
///  - **Representation independence.** Integers are always written as
///    64-bit values and re-encoded on load (`Value::mkInt(V, Arena)`), so
///    whether an int was inline or an arena int64 never reaches the file.
///    Strings are written by content and revived into reader-owned
///    storage.
///
//===----------------------------------------------------------------------===//

#ifndef MONSEM_SEMANTICS_VALUEGRAPH_H
#define MONSEM_SEMANTICS_VALUEGRAPH_H

#include "semantics/Value.h"
#include "support/Checkpoint.h"

#include <deque>
#include <unordered_map>
#include <vector>

namespace monsem {

/// Pre-order index over a program tree (collectExprs order): a stable,
/// process-independent name for every node. Ids are 1-based; 0 encodes a
/// null expression.
class ExprTable {
public:
  explicit ExprTable(const Expr *Root) {
    collectExprs(Root, Nodes);
    Ids.reserve(Nodes.size());
    for (uint32_t I = 0; I < Nodes.size(); ++I)
      Ids.emplace(Nodes[I], I + 1);
  }

  const Expr *root() const { return Nodes.front(); }
  uint32_t size() const { return static_cast<uint32_t>(Nodes.size()); }

  /// 1-based pre-order id of \p E, or 0 when \p E is null or foreign to
  /// the indexed tree.
  uint32_t idOf(const Expr *E) const {
    if (!E)
      return 0;
    auto It = Ids.find(E);
    return It == Ids.end() ? 0 : It->second;
  }

  /// Inverse of idOf; null for 0 or out-of-range ids.
  const Expr *exprAt(uint32_t Id) const {
    if (Id == 0 || Id > Nodes.size())
      return nullptr;
    return Nodes[Id - 1];
  }

private:
  std::vector<const Expr *> Nodes;
  std::unordered_map<const Expr *, uint32_t> Ids;
};

/// Serializes values and environments reachable from the roots a machine
/// feeds it. Root encodings are buffered so the object table (discovered
/// while encoding the roots) can precede them in the stream; call finish()
/// last to assemble `[object table][root bytes]` into the checkpoint.
class ValueGraphWriter {
public:
  /// \p Exprs may be null for graphs that never reference syntax (the VM's
  /// heap); encountering a closure or thunk then marks the writer failed.
  /// \p Shapes likewise may be null when no flat frames can occur.
  /// Closures and thunks are the CEK machine's, over flat frames.
  ValueGraphWriter(const ExprTable *Exprs, FrameShapeTable Shapes)
      : Exprs(Exprs), Shapes(Shapes) {}

  /// The root stream: machines interleave their own scalars (frame kinds,
  /// mode bytes, ...) with encoded references here.
  Serializer &roots() { return Roots; }

  void writeValue(Value V);
  void writeEnvNodeRef(const EnvNode *N) { Roots.writeU32(idOfEnvNode(N)); }
  void writeEnvFrameRef(const EnvFrame *F) { Roots.writeU32(idOfEnvFrame(F)); }
  void writeThunkRef(const Thunk *T) { Roots.writeU32(idOfThunk(T)); }
  void writeExprRef(const Expr *E);

  bool ok() const { return Good; }
  const std::string &error() const { return Err; }

  /// Drains the discovery worklist and appends `[u32 object count]
  /// [object records][root bytes]` to \p Out. Call exactly once.
  void finish(Serializer &Out);

private:
  struct Pending {
    uint8_t Kind;
    const void *Ptr;
  };

  uint32_t idOf(uint8_t Kind, const void *Ptr);
  uint32_t idOfEnvNode(const EnvNode *N);
  uint32_t idOfEnvFrame(const EnvFrame *F);
  uint32_t idOfThunk(const Thunk *T);
  void encodeValue(Serializer &S, Value V);
  void encodeExprRef(Serializer &S, const Expr *E);
  void emit(const Pending &P);
  void fail(std::string Msg) {
    if (Good) {
      Good = false;
      Err = std::move(Msg);
    }
  }

  const ExprTable *Exprs;
  FrameShapeTable Shapes;
  Serializer Roots;
  Serializer Objects;
  std::unordered_map<const void *, uint32_t> ObjectIds;
  std::deque<Pending> Worklist;
  uint32_t NumObjects = 0;
  bool Good = true;
  std::string Err;
};

/// Rebuilds a value graph written by ValueGraphWriter into \p A. After
/// readObjects() succeeds, the root-section read* calls mirror the writer's
/// root writes one for one. The reader owns the storage of revived strings;
/// keep it (or takeStrings()) alive as long as the rebuilt values.
class ValueGraphReader {
public:
  ValueGraphReader(Deserializer &D, Arena &A, const ExprTable *Exprs,
                   FrameShapeTable Shapes, uint32_t NumShapes)
      : D(D), A(A), Exprs(Exprs), Shapes(Shapes), NumShapes(NumShapes) {}

  /// Parses the object table and rebuilds every object (allocate blanks,
  /// then fill). False — with D failed — on any malformed input.
  bool readObjects();

  Value readValue();
  EnvNode *readEnvNodeRef();
  EnvFrame *readEnvFrameRef();
  Thunk *readThunkRef();
  const Expr *readExprRef();

  /// Ownership of the revived string storage (pointed into by Str values).
  std::deque<std::string> takeStrings() { return std::move(Strings); }

private:
  struct EncValue {
    uint8_t Kind = 0;
    int64_t Int = 0;
    uint8_t Byte = 0;
    uint32_t Id = 0;
  };
  struct Rec {
    uint8_t Kind = 0;
    uint32_t A = 0, B = 0, C = 0;
    uint8_t Byte = 0;
    std::string Str;
    EncValue V1, V2;
    std::vector<EncValue> Slots;
    void *Obj = nullptr;
  };

  EncValue parseValue();
  Value decode(const EncValue &E);
  void *objAt(uint32_t Id, uint8_t WantKind);
  const Expr *exprAt(uint32_t Id);

  Deserializer &D;
  Arena &A;
  const ExprTable *Exprs;
  FrameShapeTable Shapes;
  uint32_t NumShapes;
  std::vector<Rec> Recs;
  std::deque<std::string> Strings;
};

} // namespace monsem

#endif // MONSEM_SEMANTICS_VALUEGRAPH_H
