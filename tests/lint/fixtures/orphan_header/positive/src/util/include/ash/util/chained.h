// Fixture: included only by lonely.h, itself an orphan (the fixed point).
#pragma once
