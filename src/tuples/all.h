// One-stop include and registration for the standard tuple library.
#pragma once

#include "tuples/advert_tuple.h"
#include "tuples/agg_tuple.h"
#include "tuples/field_tuple.h"
#include "tuples/flock_tuple.h"
#include "tuples/gradient_tuple.h"
#include "tuples/message_tuple.h"
#include "tuples/modifier_tuple.h"
#include "tuples/nav_tuple.h"
#include "tuples/query_tuple.h"
#include "tuples/space_tuple.h"

namespace tota::tuples {

/// Registers every standard tuple class in the process-wide registry so
/// received frames decode to the right subclasses.  Idempotent; call once
/// at startup (emu::ShardedWorld does this automatically).
void register_standard_tuples();

}  // namespace tota::tuples
